package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// maxRecordedHashes bounds how many per-request result hashes a seed's
// record keeps.
const maxRecordedHashes = 1024

// seedRecord is what earlier runs with one (workload, seed) produced:
// the canonical voted result of each leading request and the exact
// counts of the layer replays. A later run with the same seed must
// reproduce every entry it shares with the record.
type seedRecord struct {
	ResultHashes []string          `json:"result_hashes"`
	ExactCounts  map[string]uint64 `json:"exact_counts,omitempty"`
}

func resultHashes(run *loadRun) []string {
	var out []string
	for _, r := range run.results {
		if len(out) == maxRecordedHashes {
			break
		}
		if r.err != nil {
			out = append(out, "failed")
			continue
		}
		out = append(out, hex.EncodeToString(r.resultHash[:]))
	}
	return out
}

// mergeHashes combines the per-request results of runs that sent one
// request sequence, each on its own fresh stack: request i's entry is
// the first successful result any run got for it. Two runs that got
// different results for one request are a determinism failure.
func mergeHashes(runs []*loadRun) (merged, problems []string) {
	for k, run := range runs {
		hashes := resultHashes(run)
		for _, d := range compareHashes(merged, hashes) {
			problems = append(problems, fmt.Sprintf("stack %d and an earlier stack disagree: %s", k+1, d))
		}
		for i, h := range hashes {
			if i == len(merged) {
				merged = append(merged, h)
			} else if merged[i] == "failed" {
				merged[i] = h
			}
		}
	}
	return merged, problems
}

// writeDisagreements writes one JSON line for each request on which the
// runs got different voted results, with every run's result for it, so
// the cause can be read off. It writes nothing when all agree.
func writeDisagreements(path string, runs []*loadRun) error {
	var out bytes.Buffer
	for i := 0; ; i++ {
		var results []json.RawMessage
		distinct := map[[sha256.Size]byte]bool{}
		for _, run := range runs {
			if i >= len(run.results) {
				continue
			}
			r := run.results[i]
			results = append(results, r.canon) // nil, so null, for a failed request
			if r.err == nil {
				distinct[r.resultHash] = true
			}
		}
		if len(results) == 0 {
			break
		}
		if len(distinct) > 1 {
			line, err := json.Marshal(map[string]any{"request": i, "results_by_stack": results})
			if err != nil {
				return err
			}
			out.Write(append(line, '\n'))
		}
	}
	if out.Len() == 0 {
		return nil
	}
	return os.WriteFile(path, out.Bytes(), 0o644)
}

// compareHashes lists the request indices at which two runs with one
// seed returned different voted results.
func compareHashes(a, b []string) []string {
	var diffs []string
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] && a[i] != "failed" && b[i] != "failed" {
			diffs = append(diffs, fmt.Sprintf("request %d: result %.12s then %.12s", i, a[i], b[i]))
		}
	}
	return diffs
}

// checkRecord compares this run with the stored record for its seed,
// then merges this run into the record. It returns the disagreements.
func checkRecord(path string, hashes []string, exact map[string]uint64) ([]string, error) {
	var rec seedRecord
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return nil, err
	default:
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	problems := compareHashes(rec.ResultHashes, hashes)
	for k, v := range exact {
		if old, ok := rec.ExactCounts[k]; ok && old != v {
			problems = append(problems, fmt.Sprintf("exact count %s: %d in an earlier run, %d now", k, old, v))
		}
	}
	sort.Strings(problems)
	if len(problems) > 0 {
		return problems, nil // keep the record as it was
	}
	if len(hashes) > len(rec.ResultHashes) {
		rec.ResultHashes = hashes
	}
	if len(exact) > 0 && rec.ExactCounts == nil {
		rec.ExactCounts = map[string]uint64{}
	}
	for k, v := range exact {
		rec.ExactCounts[k] = v
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	out, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return nil, os.WriteFile(path, out, 0o644)
}
