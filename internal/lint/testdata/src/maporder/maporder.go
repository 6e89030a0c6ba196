// Package maporder exercises the maporder analyzer: map ranges whose body
// lets iteration order escape (appends, outer writes, emitting calls,
// early returns) are findings; commutative integer accumulation,
// writes keyed by the range key into a map read only at that key,
// loop-local work, and det.SortedKeys iteration stay legal.
package maporder

import (
	"fmt"
	"io"
	"strings"

	"skyloft/internal/det"
)

var global []string

func badAppend(m map[string]int) []string {
	var out []string
	for k := range m { // want `map iteration order escapes \(the body writes to "out" declared outside the loop\)`
		out = append(out, k)
	}
	return out
}

func badEmit(w io.Writer, m map[string]int) {
	for k, v := range m { // want `map iteration order escapes \(the body calls fmt\.Fprintf for effect\)`
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

func badReturn(m map[string]int) string {
	for k := range m { // want `map iteration order escapes \(the body returns mid-iteration\)`
		return k
	}
	return ""
}

func badFloatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `map iteration order escapes \(the body writes to "sum" declared outside the loop\)`
		sum += v // float addition is not associative: order reaches the bits
	}
	return sum
}

func badOuterWrite(m map[int]int, hist []int) {
	for k, v := range m { // want `map iteration order escapes \(the body writes to "hist" declared outside the loop\)`
		hist[k%len(hist)] = v
	}
}

func badSend(m map[string]int, ch chan string) {
	for k := range m { // want `map iteration order escapes \(the body sends on a channel\)`
		ch <- k
	}
}

// suppressedDump stands in for a debug dump whose order is genuinely
// irrelevant.
//
//simlint:allow maporder fixture: debug dump, order intentionally arbitrary
func suppressedDump(m map[string]int) {
	for k := range m {
		global = append(global, k)
	}
}

func legalCounts(m map[string]int) (n int, total uint64, bits uint8) {
	for _, v := range m { // commutative integer accumulation is order-safe
		n++
		total += uint64(v)
		bits |= uint8(v)
	}
	return
}

func legalLocal(m map[string]int) {
	for k, v := range m {
		s := make([]string, 0, 1) // loop-local state dies with the iteration
		s = append(s, k)
		buf := fmt.Sprintf("%s=%d", s[0], v)
		_ = buf
	}
}

func legalKeyedCopy(m map[string]int, lo string) map[string]int {
	seen := map[string]int{}
	for k, v := range m { // each write lands on its own key
		if k >= lo {
			seen[k] = v
		}
	}
	return seen
}

func legalKeyedMax(rows []map[string]float64) map[string]float64 {
	best := map[string]float64{}
	for _, row := range rows {
		for col, v := range row { // reads and writes best only at [col]
			if v > best[col] {
				best[col] = v
			}
		}
	}
	return best
}

func legalKeyedOpAssign(m map[string]string, acc map[string]string) {
	for k, v := range m {
		acc[k] += v // one visit per key: string += cannot reorder
	}
}

func badKeyedComputedIndex(m map[string]int, dst map[string]int) {
	for k, v := range m { // want `map iteration order escapes \(the body writes to "dst" declared outside the loop\)`
		dst[strings.ToLower(k)] = v // distinct keys may collide
	}
}

func badKeyedByValue(m map[string]string, dst map[string]string) {
	for k, v := range m { // want `map iteration order escapes \(the body writes to "dst" declared outside the loop\)`
		dst[v] = k
	}
}

func badKeyedReadsLen(m map[string]int, dst map[string]int) {
	for k := range m { // want `map iteration order escapes \(the body writes to "dst" declared outside the loop\)`
		dst[k] = len(dst)
	}
}

func badKeyedReadsOtherKey(m map[string]int, dst map[string]int) {
	for k, v := range m { // want `map iteration order escapes \(the body writes to "dst" declared outside the loop\)`
		dst[k] = v + dst["total"]
	}
}

func badKeyedReassignedKey(m map[string]int, dst map[string]int) {
	for k, v := range m { // want `map iteration order escapes \(the body writes to "dst" declared outside the loop\)`
		k = strings.TrimSpace(k)
		dst[k] = v
	}
}

func badKeyedAppend(m map[string]int, dst map[string][]int) {
	for k, v := range m { // want `map iteration order escapes \(the body writes to "dst" declared outside the loop\)`
		dst[k] = append(dst[k], v) // values of distinct keys may share an array
	}
}

func badKeyedLastWriter(m map[string]int, dst map[string]int) (last string) {
	for k, v := range m { // want `map iteration order escapes \(the body writes to "last" declared outside the loop\)`
		dst[k] = v
		last = k
	}
	return last
}

func badKeyedThroughValue(m map[string]int, dst map[string]*int) {
	for k, v := range m { // want `map iteration order escapes \(the body writes to "dst" declared outside the loop\)`
		*dst[k] = v // distinct keys may share a pointer
	}
}

func badKeyedSlice(m map[int]int, hist []int) {
	for k, v := range m { // want `map iteration order escapes \(the body writes to "hist" declared outside the loop\)`
		hist[k] = v // an out-of-range k panics at an order-dependent point
	}
}

func legalSorted(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for _, k := range det.SortedKeys(m) { // the blessed pattern
		out = append(out, k)
	}
	return out
}
