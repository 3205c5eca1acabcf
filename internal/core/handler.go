package core

import (
	"context"
	"fmt"
	"sort"

	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/fastjson"
	"xtract/internal/store"
)

// stepPayload is one (family, group) extraction within an Xtract batch.
type stepPayload struct {
	FamilyID string `json:"family_id"`
	GroupID  string `json:"group_id"`
	// Files maps original paths to the effective paths at the execution
	// site (identical when data are local; staged paths when prefetched).
	Files map[string]string `json:"files"`
	// FetchFrom, when set, names the transfer-fabric endpoint to download
	// each file from at extraction time (the direct HTTPS/Drive-API path
	// for sites without a shared file system).
	FetchFrom string `json:"fetch_from,omitempty"`
}

// taskPayload is the body of one FaaS task: an Xtract batch of steps that
// share an extractor and execution site.
type taskPayload struct {
	Extractor  string        `json:"extractor"`
	Site       string        `json:"site"`
	Steps      []stepPayload `json:"steps"`
	Checkpoint bool          `json:"checkpoint,omitempty"`
}

// stepOutcome is the result of one step within a task.
type stepOutcome struct {
	FamilyID  string                 `json:"family_id"`
	GroupID   string                 `json:"group_id"`
	OK        bool                   `json:"ok"`
	Err       string                 `json:"err,omitempty"`
	Metadata  map[string]interface{} `json:"metadata,omitempty"`
	ExtractMS float64                `json:"extract_ms"`
	// FromCheckpoint marks metadata reloaded from a checkpoint instead of
	// recomputed (the Figure 8 restart path).
	FromCheckpoint bool `json:"from_checkpoint,omitempty"`
}

// taskResult is the body returned by the extractor function.
type taskResult struct {
	Extractor string        `json:"extractor"`
	Outcomes  []stepOutcome `json:"outcomes"`
}

// checkpointPath is where a step's checkpoint lives on the site store.
func checkpointPath(familyID, groupID, extractor string) string {
	return fmt.Sprintf("/xtract-checkpoint/%s/%s-%s.json",
		sanitizePath(familyID), sanitizePath(groupID), extractor)
}

func sanitizePath(id string) string {
	out := make([]rune, 0, len(id))
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// makeHandler builds the FaaS function body for one extractor at one
// site: deserialize the Xtract batch, read each group's files from the
// site's data layer, apply the extractor, optionally checkpoint, and
// return the batched outcomes (Listing 1 of the paper).
func (s *Service) makeHandler(site *Site, ext extractors.Extractor) func(context.Context, []byte) ([]byte, error) {
	return func(ctx context.Context, payload []byte) ([]byte, error) {
		var task taskPayload
		if err := decodeTaskPayload(payload, &task); err != nil {
			return nil, fmt.Errorf("core: bad task payload: %w", err)
		}
		result := taskResult{Extractor: task.Extractor}
		for _, step := range task.Steps {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
			}
			result.Outcomes = append(result.Outcomes, s.runStep(site, ext, task, step))
		}
		// The result buffer cannot be pooled: the fabric retains it in the
		// task record until the pump consumes it, so it is allocated once,
		// sized for the batch.
		return encodeTaskResult(make([]byte, 0, 64+96*len(result.Outcomes)), &result)
	}
}

// runStep executes one step, honoring checkpoints.
func (s *Service) runStep(site *Site, ext extractors.Extractor, task taskPayload, step stepPayload) stepOutcome {
	out := stepOutcome{FamilyID: step.FamilyID, GroupID: step.GroupID}
	if h := s.cfg.ExtractFaults; h != nil {
		panics, err := h.ExtractFault(task.Extractor, step.GroupID)
		if panics {
			// Crash the worker mid-step; the endpoint's panic recovery
			// turns this into a TaskFailed the pump retries.
			panic(fmt.Sprintf("faultinject: extractor %s group %s", task.Extractor, step.GroupID))
		}
		if err != nil {
			out.Err = err.Error()
			return out
		}
	}
	var cpPath string
	if task.Checkpoint {
		cpPath = checkpointPath(step.FamilyID, step.GroupID, task.Extractor)
		if data, err := site.Store.Read(cpPath); err == nil {
			// A checkpoint file holds one JSON object (or null, for an
			// extractor that returned no metadata); anything else is
			// corrupt and falls through to re-extraction.
			if v, derr := fastjson.DecodeValue(data); derr == nil {
				if md, ok := v.(map[string]interface{}); ok || v == nil {
					out.OK = true
					out.Metadata = md
					out.FromCheckpoint = true
					return out
				}
			}
		}
	}

	files := make(map[string][]byte, len(step.Files))
	origOf := make(map[string]string, len(step.Files))
	var paths []string
	for orig, effective := range step.Files {
		paths = append(paths, orig)
		origOf[orig] = effective
	}
	// Deterministic read order.
	sort.Strings(paths)
	for _, orig := range paths {
		var data []byte
		var err error
		if step.FetchFrom != "" {
			// Direct download from the remote data layer (Listing 1's
			// GoogleDriveDownloader path).
			data, err = s.cfg.Fabric.Fetch(step.FetchFrom, origOf[orig])
		} else {
			data, err = site.Store.Read(origOf[orig])
		}
		if err != nil {
			out.Err = fmt.Sprintf("read %s: %v", origOf[orig], err)
			return out
		}
		// Extractors key results by the original path so metadata refers
		// to the file's home location, not the staging copy.
		files[orig] = data
	}

	g := &family.Group{ID: step.GroupID, Extractor: task.Extractor, Files: paths}
	start := s.clk.Now()
	md, err := ext.Extract(g, files)
	out.ExtractMS = float64(s.clk.Since(start).Microseconds()) / 1000
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.OK = true
	out.Metadata = md

	if task.Checkpoint {
		if data, err := fastjson.AppendValue(nil, md); err == nil {
			// Flush each processed group's metadata to disk on completion
			// (the paper's 'checkpoint-flag').
			_ = site.Store.Write(cpPath, data)
		}
	}
	return out
}

// ReadStore reports the store a site exposes (exported for examples).
func (s *Site) ReadStore() store.Store { return s.Store }
