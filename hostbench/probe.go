package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"skyloft/internal/apps/kvstore"
	"skyloft/internal/rng"
)

// Fig. 8b's store and key distribution (bench's RocksDB handler): a
// 4096-entry memtable, 20k preloaded keys, uniform keys over the first 19k,
// a 50/50 GET/SCAN mix, and 500-key range scans.
const (
	probeMemtable = 4096
	probePreload  = 20000
	probeKeySpace = 19000
	probeScanLen  = 500
	// probeScans gives the scan p99 at least ten samples beyond it.
	probeScans = 1500
)

// probeResult holds per-call host latencies of the kvstore's public calls.
type probeResult struct {
	put, get, scan []time.Duration
}

// kvstoreProbe times individual LSM calls outside the simulator: each Put
// of the preload (which includes flush and compaction), then GETs and SCANs
// on Fig. 8b's key distribution. It checks every result it reads.
func kvstoreProbe(seed uint64) (probeResult, error) {
	var res probeResult
	key := func(i int) string { return fmt.Sprintf("key-%08d", i) }
	val := func(i int) string { return fmt.Sprintf("value-%d", i) }
	db := kvstore.NewLSM(probeMemtable)
	for i := 0; i < probePreload; i++ {
		k, v := key(i), val(i)
		t0 := time.Now()
		db.Put(k, v)
		res.put = append(res.put, time.Since(t0))
	}
	r := rng.New(seed)
	for len(res.scan) < probeScans {
		n := r.Intn(probeKeySpace)
		if r.Bernoulli(0.5) {
			k := key(n)
			t0 := time.Now()
			v, ok := db.Get(k)
			res.get = append(res.get, time.Since(t0))
			if !ok || v != val(n) {
				return res, fmt.Errorf("kvstore probe: Get(%s) = %q, %v", k, v, ok)
			}
			continue
		}
		start, end := key(n), key(n+probeScanLen)
		t0 := time.Now()
		got := db.Scan(start, end, probeScanLen)
		res.scan = append(res.scan, time.Since(t0))
		if len(got) != probeScanLen {
			return res, fmt.Errorf("kvstore probe: Scan(%s, %s) returned %d entries, want %d", start, end, len(got), probeScanLen)
		}
	}
	return res, nil
}

// quantileUs is the nearest-rank q-quantile of ds in microseconds.
func quantileUs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / float64(time.Microsecond)
}
