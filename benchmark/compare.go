package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// resultsFile is a recorded set of runs: at most one per workload and trace
// mode. Claim is always null — a benchmark definition claims no gain; the
// field is there so that a reader of the file does not have to wonder.
type resultsFile struct {
	Claim *string   `json:"claim"`
	Note  string    `json:"note,omitempty"`
	Runs  []*result `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// mergeResults records runs in path, replacing earlier runs of the same
// workload and trace mode, so one file can collect a full set over several
// invocations.
func mergeResults(path string, runs []*result) error {
	f := &resultsFile{}
	if old, err := readResults(path); err == nil {
		f = old
	} else if !os.IsNotExist(err) {
		return err
	}
	for _, r := range runs {
		replaced := false
		for i, o := range f.Runs {
			if o.Workload == r.Workload && o.Trace == r.Trace {
				f.Runs[i], replaced = r, true
			}
		}
		if !replaced {
			f.Runs = append(f.Runs, r)
		}
	}
	sort.SliceStable(f.Runs, func(i, j int) bool {
		if f.Runs[i].Trace != f.Runs[j].Trace {
			return f.Runs[i].Trace < f.Runs[j].Trace
		}
		return workloadIndex(f.Runs[i].Workload) < workloadIndex(f.Runs[j].Workload)
	})
	f.Claim = nil
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func workloadIndex(name string) int {
	for i := range workloads {
		if workloads[i].name == name {
			return i
		}
	}
	return len(workloads)
}

// compareFiles prints, per workload × end-to-end metric, both values, the
// relative difference of b against a (positive = worse) and the bound, and
// returns non-zero on a breach, on a missing run, or when b failed more
// operations than a.
func compareFiles(spec *benchSpec, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		return fatal(err)
	}
	b, err := readResults(pathB)
	if err != nil {
		return fatal(err)
	}
	find := func(f *resultsFile, wl string) *result {
		for _, r := range f.Runs {
			if r.Workload == wl && r.Trace == 0 {
				return r
			}
		}
		return nil
	}
	code := 0
	fmt.Printf("%-12s %-20s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, w := range spec.Workloads {
		ra, rb := find(a, w.Name), find(b, w.Name)
		if ra == nil || rb == nil {
			fmt.Printf("%-12s missing from %s\n", w.Name, map[bool]string{true: pathA, false: pathB}[ra == nil])
			code = 1
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = (va - vb) / va
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  BREACH"
				code = 1
			}
			fmt.Printf("%-12s %-20s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", w.Name, m.Name, va, vb, worse*100, m.Bound*100, verdict)
		}
		sa := float64(ra.Failed) / float64(max(ra.Attempted, 1))
		sb := float64(rb.Failed) / float64(max(rb.Attempted, 1))
		verdict := ""
		if sb > sa {
			verdict = "  BREACH"
			code = 1
		}
		fmt.Printf("%-12s %-20s %14.6g %14.6g %9s %7s%s\n", w.Name, "failed_share", sa, sb, "", "0", verdict)
	}
	return code
}
