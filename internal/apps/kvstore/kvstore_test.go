package kvstore

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func TestMemcacheBasic(t *testing.T) {
	m := NewMemcache(4)
	m.Set("a", "1")
	m.Set("b", "2")
	if v, ok := m.Get("a"); !ok || v != "1" {
		t.Fatal("Get(a) wrong")
	}
	if _, ok := m.Get("zz"); ok {
		t.Fatal("Get(zz) should miss")
	}
	m.Set("a", "3")
	if v, _ := m.Get("a"); v != "3" {
		t.Fatal("overwrite failed")
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestMemcachePreload(t *testing.T) {
	m := NewMemcache(16)
	m.Preload(1000)
	if m.Len() != 1000 {
		t.Fatalf("Len = %d", m.Len())
	}
	if v, ok := m.Get("key-500"); !ok || v != "value-500" {
		t.Fatal("preloaded key missing")
	}
}

// Property: Memcache behaves like a map under any op sequence.
func TestQuickMemcacheVsMap(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewMemcache(8)
		ref := map[string]string{}
		for i, op := range ops {
			key := fmt.Sprintf("k%d", op%50)
			switch op % 2 {
			case 0:
				val := fmt.Sprintf("v%d", i)
				m.Set(key, val)
				ref[key] = val
			case 1:
				got, ok := m.Get(key)
				want, wok := ref[key]
				if ok != wok || got != want {
					return false
				}
			}
		}
		return m.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLSMGetAcrossFlushes(t *testing.T) {
	l := NewLSM(10) // tiny memtable: force flushes
	for i := 0; i < 100; i++ {
		l.Put(fmt.Sprintf("key-%03d", i), fmt.Sprintf("v%d", i))
	}
	for i := 0; i < 100; i++ {
		v, ok := l.Get(fmt.Sprintf("key-%03d", i))
		if !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("key-%03d lost across flush/compaction (got %q, %v)", i, v, ok)
		}
	}
	_, _, _, flushes, compactions := l.Stats()
	if flushes == 0 || compactions == 0 {
		t.Fatalf("expected flushes and compactions: %d/%d", flushes, compactions)
	}
}

func TestLSMNewestValueWins(t *testing.T) {
	l := NewLSM(4)
	l.Put("k", "old")
	for i := 0; i < 10; i++ { // force the old value into a run
		l.Put(fmt.Sprintf("pad%d", i), "x")
	}
	l.Put("k", "new")
	if v, _ := l.Get("k"); v != "new" {
		t.Fatalf("Get = %q, want new", v)
	}
	got := l.Scan("k", "k\x00", 0)
	if len(got) != 1 || got[0] != "new" {
		t.Fatalf("Scan sees stale value: %v", got)
	}
}

func TestLSMScanRangeAndLimit(t *testing.T) {
	l := NewLSM(16)
	for i := 0; i < 50; i++ {
		l.Put(fmt.Sprintf("key-%03d", i), fmt.Sprintf("v%d", i))
	}
	out := l.Scan("key-010", "key-020", 0)
	if len(out) != 10 {
		t.Fatalf("scan returned %d values, want 10", len(out))
	}
	if out[0] != "v10" || out[9] != "v19" {
		t.Fatalf("scan range wrong: %v", out)
	}
	if lim := l.Scan("key-000", "key-050", 7); len(lim) != 7 {
		t.Fatalf("limit ignored: %d", len(lim))
	}
}

// Property: the LSM agrees with a map-plus-sort reference under any
// interleaving of puts, gets and scans, across flushes and compactions.
func TestQuickLSMVsMap(t *testing.T) {
	f := func(prog []byte) bool {
		if err := checkLSM(prog); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzLSMMatchesReference is the differential test of the LSM against a
// naive map-plus-sort reference; see checkLSM for the program encoding. The
// seed corpus lives in testdata/fuzz.
func FuzzLSMMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 3, 0, 1, 0, 2, 0, 0, 1, 3, 2, 0, 9, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if err := checkLSM(prog); err != nil {
			t.Fatal(err)
		}
	})
}

// lsmKey maps a byte to one of 24 keys, so programs revisit keys often.
func lsmKey(b byte) string { return fmt.Sprintf("key-%02d", b%24) }

// checkLSM replays prog against an LSM and a map-plus-sort reference and
// returns the first disagreement, or nil. The first byte picks a memtable
// limit of 1 to 4 entries, so flushes and compactions come within a few
// puts. Each following op is a Put, a Get, or a Scan over a range that may
// be empty or inverted, with a limit of 0 (none) to 7. The program ends
// with a Get of every key and an unbounded full scan.
func checkLSM(prog []byte) error {
	pc := 0
	next := func() byte {
		if pc >= len(prog) {
			return 0
		}
		b := prog[pc]
		pc++
		return b
	}
	l := NewLSM(int(next()%4) + 1)
	ref := map[string]string{}
	refScan := func(start, end string, limit int) []string {
		var keys []string
		for k := range ref {
			if k >= start && k < end {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		if limit > 0 && len(keys) > limit {
			keys = keys[:limit]
		}
		out := make([]string, len(keys))
		for i, k := range keys {
			out[i] = ref[k]
		}
		return out
	}
	checkScan := func(start, end string, limit int) error {
		got, want := l.Scan(start, end, limit), refScan(start, end, limit)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("Scan(%q, %q, %d) = %v, want %v", start, end, limit, got, want)
		}
		return nil
	}
	checkGet := func(key string) error {
		got, ok := l.Get(key)
		want, wok := ref[key]
		if ok != wok || got != want {
			return fmt.Errorf("Get(%q) = %q, %v; want %q, %v", key, got, ok, want, wok)
		}
		return nil
	}
	for op := 0; pc < len(prog); op++ {
		var err error
		switch next() % 3 {
		case 0:
			key, val := lsmKey(next()), fmt.Sprintf("v%d", op)
			l.Put(key, val)
			ref[key] = val
		case 1:
			err = checkGet(lsmKey(next()))
		case 2:
			err = checkScan(lsmKey(next()), lsmKey(next()), int(next()%8))
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", op, err)
		}
	}
	for i := 0; i < 24; i++ {
		if err := checkGet(lsmKey(byte(i))); err != nil {
			return err
		}
	}
	if l.Len() < len(ref) {
		return fmt.Errorf("Len() = %d below the %d distinct keys", l.Len(), len(ref))
	}
	return checkScan("", "\xff", 0)
}

func TestLSMGetMissing(t *testing.T) {
	l := NewLSM(4)
	l.Put("a", "1")
	if _, ok := l.Get("nope"); ok {
		t.Fatal("missing key found")
	}
}
