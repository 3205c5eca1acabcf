package core

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/faas"
	"xtract/internal/fastjson"
	"xtract/internal/queue"
)

// scribble overwrites the buffer's full capacity, emulating what the
// next pool owner does to the bytes the moment they are recycled.
func scribble(b *[]byte) {
	s := (*b)[:cap(*b)]
	for j := range s {
		s[j] = 'X'
	}
	*b = (*b)[:0]
}

// TestPooledPayloadNotAliasedByQueue pins the pool ownership contract
// the dispatch path depends on: queue.SendBatch copies every body, so a
// pooled encode buffer may be scribbled and released immediately after
// the hand-off without corrupting queued messages.
func TestPooledPayloadNotAliasedByQueue(t *testing.T) {
	q := queue.New("alias", clock.NewReal())
	tp := taskPayload{Extractor: "keyword", Site: "local",
		Steps: []stepPayload{{FamilyID: "f", GroupID: "g",
			Files: map[string]string{"/a": "/a"}}}}

	const rounds = 200
	var want []byte
	for i := 0; i < rounds; i++ {
		buf := fastjson.GetBuf()
		*buf = encodeTaskPayload(*buf, &tp)
		if want == nil {
			want = append([]byte(nil), *buf...)
		}
		q.SendBatch([][]byte{*buf})
		scribble(buf)
		fastjson.PutBuf(buf)
	}
	var got [][]byte
	for len(got) < rounds {
		msgs := q.Receive(64, time.Minute)
		for _, m := range msgs {
			got = append(got, m.Body)
			_ = q.Delete(m.Receipt)
		}
	}
	for i := range got {
		if !bytes.Equal(got[i], want) {
			t.Fatalf("message %d corrupted by released-buffer reuse:\ngot:  %s\nwant: %s",
				i, got[i], want)
		}
	}
}

// TestPooledPayloadNotAliasedByFaaS is the same contract for the other
// hand-off: faas.SubmitBatch copies each payload before returning, so
// the dispatcher may scribble and recycle its encode buffers as soon as
// the submit call comes back, while workers are still executing the
// tasks. Run under -race, the concurrent workers reading an aliased
// payload would trip the detector.
func TestPooledPayloadNotAliasedByFaaS(t *testing.T) {
	clk := clock.NewReal()
	svc := faas.NewService(clk, faas.Costs{})
	ep := faas.NewEndpoint("ep1", 2, clk)
	svc.RegisterEndpoint(ep)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ep.Start(ctx); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var seen [][]byte
	fid, err := svc.RegisterFunction("capture", func(_ context.Context, payload []byte) ([]byte, error) {
		mu.Lock()
		seen = append(seen, append([]byte(nil), payload...))
		mu.Unlock()
		return []byte("ok"), nil
	}, "")
	if err != nil {
		t.Fatal(err)
	}

	tp := taskPayload{Extractor: "keyword", Site: "local",
		Steps: []stepPayload{{FamilyID: "f", GroupID: "g",
			Files: map[string]string{"/a": "/a"}}}}
	var want []byte
	const rounds = 100
	var ids []string
	for i := 0; i < rounds; i++ {
		buf := fastjson.GetBuf()
		*buf = encodeTaskPayload(*buf, &tp)
		if want == nil {
			want = append([]byte(nil), *buf...)
		}
		batch, err := svc.SubmitBatch([]faas.TaskRequest{
			{FunctionID: fid, EndpointID: "ep1", Payload: *buf}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, batch...)
		scribble(buf)
		fastjson.PutBuf(buf)
	}
	for _, id := range ids {
		if _, err := svc.Wait(id); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != rounds {
		t.Fatalf("handler saw %d payloads, want %d", len(seen), rounds)
	}
	for i, p := range seen {
		if !bytes.Equal(p, want) {
			t.Fatalf("payload %d corrupted by released-buffer reuse:\ngot:  %s\nwant: %s",
				i, p, want)
		}
	}
}
