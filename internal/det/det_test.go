package det

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"
)

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"c": 3, "a": 1, "b": 2}
	if got, want := SortedKeys(m), []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedKeys = %v, want %v", got, want)
	}
	ints := map[int]struct{}{9: {}, -1: {}, 4: {}}
	if got, want := SortedKeys(ints), []int{-1, 4, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedKeys = %v, want %v", got, want)
	}
	if got := SortedKeys(map[uint64]bool(nil)); len(got) != 0 {
		t.Fatalf("SortedKeys(nil) = %v, want empty", got)
	}
}

// TestFNV pins the helpers to the reference FNV-1a 64-bit digests, so every
// witness built on them keeps its value.
func TestFNV(t *testing.T) {
	ref := fnv.New64a()
	ref.Write([]byte("skyloft"))
	if got, want := FNVString(FNVOffset, "skyloft"), ref.Sum64(); got != want {
		t.Fatalf("FNVString = %#x, want %#x", got, want)
	}
	if got, want := FNVBytes(FNVOffset, []byte("skyloft")), ref.Sum64(); got != want {
		t.Fatalf("FNVBytes = %#x, want %#x", got, want)
	}
	ref.Reset()
	var le [8]byte
	binary.LittleEndian.PutUint64(le[:], 0x0123456789abcdef)
	ref.Write(le[:])
	if got, want := FNVMix(FNVOffset, 0x0123456789abcdef), ref.Sum64(); got != want {
		t.Fatalf("FNVMix = %#x, want %#x", got, want)
	}
}
