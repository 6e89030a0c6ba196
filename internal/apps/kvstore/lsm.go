package kvstore

import "sort"

// LSM is a miniature log-structured merge store standing in for RocksDB:
// writes land in a key-sorted memtable; a full memtable becomes the newest
// immutable run; reads binary-search the memtable then the runs
// newest-first; range scans and compactions are one k-way merge across the
// levels. GETs touch O(log n) entries while SCANs walk the requested range
// — reproducing the two-orders-of-magnitude service-time gap (0.95 µs vs
// 591 µs) that makes the paper's RocksDB workload heavy-tailed.
type LSM struct {
	memtable     []kv // sorted by key, one entry per key
	memLimit     int
	runs         [][]kv // sorted by key, newest first
	compactAfter int    // merge all runs once this many accumulate

	gets, scans, puts, flushes, compactions uint64
}

type kv struct {
	k, v string
}

// NewLSM creates a store that flushes its memtable at memLimit entries and
// compacts once 4 runs accumulate.
func NewLSM(memLimit int) *LSM {
	if memLimit <= 0 {
		memLimit = 4096
	}
	return &LSM{
		memtable:     make([]kv, 0, memLimit),
		memLimit:     memLimit,
		compactAfter: 4,
	}
}

// search returns the index of the first entry of the sorted level with a
// key at or after key.
func search(level []kv, key string) int {
	return sort.Search(len(level), func(i int) bool { return level[i].k >= key })
}

// Put inserts or updates a key.
func (l *LSM) Put(key, value string) {
	l.puts++
	i := len(l.memtable)
	if i > 0 && key <= l.memtable[i-1].k { // ascending keys append unsearched
		i = search(l.memtable, key)
		if l.memtable[i].k == key {
			l.memtable[i].v = value
			return
		}
	}
	l.memtable = append(l.memtable, kv{})
	copy(l.memtable[i+1:], l.memtable[i:])
	l.memtable[i] = kv{key, value}
	if len(l.memtable) >= l.memLimit {
		l.flush()
	}
}

// flush hands the memtable, already sorted, to the runs as the newest run.
func (l *LSM) flush() {
	l.flushes++
	l.runs = append([][]kv{l.memtable}, l.runs...)
	l.memtable = make([]kv, 0, l.memLimit)
	if len(l.runs) >= l.compactAfter {
		l.compact()
	}
}

// compact merges all runs into one, newest value winning.
func (l *LSM) compact() {
	l.compactions++
	n := 0
	for _, run := range l.runs {
		n += len(run)
	}
	merged := make([]kv, 0, n)
	for e, ok := pop(l.runs); ok; e, ok = pop(l.runs) { // consumes l.runs, which merged replaces
		merged = append(merged, e)
	}
	l.runs = [][]kv{merged}
}

// pop is the k-way merge step over levels, each sorted by key and ordered
// newest first. It removes the smallest key from every level holding it and
// returns that key with its newest value; ok is false once every level is
// empty.
func pop(levels [][]kv) (e kv, ok bool) {
	first := -1
	for i, lv := range levels {
		if len(lv) > 0 && (first < 0 || lv[0].k < levels[first][0].k) {
			first = i
		}
	}
	if first < 0 {
		return kv{}, false
	}
	e = levels[first][0]
	for i := first; i < len(levels); i++ {
		if len(levels[i]) > 0 && levels[i][0].k == e.k {
			levels[i] = levels[i][1:]
		}
	}
	return e, true
}

// Get looks up a key: memtable first, then runs newest-first.
func (l *LSM) Get(key string) (string, bool) {
	l.gets++
	if v, ok := find(l.memtable, key); ok {
		return v, true
	}
	for _, run := range l.runs {
		if v, ok := find(run, key); ok {
			return v, true
		}
	}
	return "", false
}

func find(level []kv, key string) (string, bool) {
	if i := search(level, key); i < len(level) && level[i].k == key {
		return level[i].v, true
	}
	return "", false
}

// Scan returns up to limit values (all when limit <= 0) whose keys lie in
// [start, end), in key order, merged across the memtable and all runs
// (newest value wins).
func (l *LSM) Scan(start, end string, limit int) []string {
	l.scans++
	levels := make([][]kv, 0, 1+len(l.runs))
	levels = append(levels, l.memtable[search(l.memtable, start):])
	for _, run := range l.runs {
		levels = append(levels, run[search(run, start):])
	}
	var out []string
	if limit > 0 {
		out = make([]string, 0, min(limit, l.Len()))
	}
	for limit <= 0 || len(out) < limit {
		e, ok := pop(levels)
		if !ok || e.k >= end {
			break
		}
		out = append(out, e.v)
	}
	return out
}

// Len reports an upper bound on distinct keys (memtable + run entries).
func (l *LSM) Len() int {
	n := len(l.memtable)
	for _, r := range l.runs {
		n += len(r)
	}
	return n
}

// Stats reports operation counters.
func (l *LSM) Stats() (gets, scans, puts, flushes, compactions uint64) {
	return l.gets, l.scans, l.puts, l.flushes, l.compactions
}
