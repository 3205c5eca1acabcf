package family_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"xtract/internal/clock"
	"xtract/internal/crawler"
	"xtract/internal/dataset"
	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/queue"
	"xtract/internal/store"
)

// TestFamilyCodecOnCrawledMDF holds the codec to encoding/json on the
// families the pipeline really ships: an MDF tree crawled with content
// fingerprints on, packaged both by min-transfers and by the naive
// one-family-per-group baseline.
func TestFamilyCodecOnCrawledMDF(t *testing.T) {
	fs := store.NewMemFS("mdf", nil)
	if _, err := dataset.MaterializeMDF(fs, "/mdf", 40, 7); err != nil {
		t.Fatal(err)
	}
	for _, minTransfers := range []bool{true, false} {
		out := queue.New("families", clock.NewReal())
		c := crawler.New(fs, crawler.MatIOGrouper(extractors.DefaultLibrary()), out)
		c.Workers = 2
		c.UseMinTransfers = minTransfers
		c.Fingerprint = true
		if _, err := c.Crawl(context.Background(), []string{"/mdf"}); err != nil {
			t.Fatal(err)
		}
		bodies := out.Drain()
		var hashed, multiFile int
		for _, body := range bodies {
			var fam family.Family
			if err := json.Unmarshal(body, &fam); err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(&fam)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("min-transfers=%v: crawler bytes differ from json.Marshal:\nfast: %s\njson: %s",
					minTransfers, body, want)
			}
			got, err := family.AppendJSON(nil, &fam)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("min-transfers=%v: AppendJSON (err %v):\nfast: %s\njson: %s",
					minTransfers, err, got, want)
			}
			var back family.Family
			if err := family.DecodeJSON(body, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, fam) {
				t.Fatalf("min-transfers=%v: decode diverges:\nfast: %#v\njson: %#v", minTransfers, back, fam)
			}
			for _, fm := range fam.FileMeta {
				if fm.ContentHash != "" {
					hashed++
				}
			}
			if len(fam.FileMeta) > 1 {
				multiFile++
			}
		}
		if len(bodies) == 0 || hashed == 0 || multiFile == 0 {
			t.Fatalf("min-transfers=%v: %d families, %d hashed files, %d multi-file families; the tree no longer covers the codec",
				minTransfers, len(bodies), hashed, multiFile)
		}
	}
}
