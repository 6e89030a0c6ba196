package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// mergeResults reads the record lines of saved runs and prints, per
// workload and mode, each metric's median, quartiles and spread (the
// interquartile range as a share of the median). It refuses records from
// unlike hosts: their numbers are not comparable.
func mergeResults(out io.Writer, files []string) error {
	var recs []record
	for _, f := range files {
		rs, err := readRecords(f)
		if err != nil {
			return err
		}
		recs = append(recs, rs...)
	}
	if len(recs) == 0 {
		return fmt.Errorf("merge: no records in %d files", len(files))
	}
	for _, r := range recs[1:] {
		if r.Host != recs[0].Host {
			return fmt.Errorf("merge: unlike hosts: %+v vs %+v", recs[0].Host, r.Host)
		}
	}
	h := recs[0].Host
	fmt.Fprintf(out, "host: %s, nproc %d, GOMAXPROCS %d, %s\n", h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion)

	groups := map[string][]record{}
	for _, r := range recs {
		key := fmt.Sprintf("%s trace=%d", r.Workload, r.Trace)
		groups[key] = append(groups[key], r)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := groups[k]
		failed := 0
		for _, r := range g {
			failed += r.Failed
		}
		fmt.Fprintf(out, "\n%s: %d runs, %d failed trials\n", k, len(g), failed)
		fmt.Fprintf(out, "  %-28s %12s %12s %12s %8s %s\n", "metric", "median", "q1", "q3", "spread", "unit")
		var names []string
		for n := range g[0].Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			var v []float64
			for _, r := range g {
				v = append(v, r.Metrics[n].Value)
			}
			med := medianOf(v)
			q := quartiles(v)
			spread := 0.0
			if med != 0 {
				spread = (q[2] - q[0]) / med
			}
			fmt.Fprintf(out, "  %-28s %12.6g %12.6g %12.6g %8.4f %s\n", n, med, q[0], q[2], spread, g[0].Metrics[n].Unit)
		}
	}
	return nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("merge: %w", err)
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `{"record":`) {
			continue
		}
		var r struct {
			Record record `json:"record"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("merge: %s: %w", path, err)
		}
		out = append(out, r.Record)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("merge: %s: %w", path, err)
	}
	return out, nil
}

// quartiles matches Python's statistics.quantiles(v, n=4), the default
// exclusive method.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	var q [3]float64
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
