// The allowlist is per-file, not per-package: a goroutine in a sibling
// file of the same fixture package must still be reported.
package sweeppool

func rogueSpawn(p *pool) {
	go p.trial(0) // want `bare goroutine in a deterministic package`
}
