// Fixture mirroring the sanctioned parallel-trial pool: this file's on-disk
// path ends in internal/bench/sweep.go, so the gospawn file allowlist must
// suppress its goroutine finding (it stays in the raw stream, marked with
// the allowlist reason).
package sweeppool

import "sync"

type pool struct{ results []int }

func (p *pool) trial(i int) { p.results[i] = i * i }

func (p *pool) sweep() {
	var wg sync.WaitGroup
	wg.Add(len(p.results))
	for i := range p.results {
		go func(i int) { // allowlisted: no want comment
			defer wg.Done()
			p.trial(i)
		}(i)
	}
	wg.Wait()
}
