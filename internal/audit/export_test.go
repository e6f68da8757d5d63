package audit

import "sync"

// OpenJournalFS is OpenJournal over a caller-chosen filesystem, for the
// external tests that put a waltest.FS under a coordinator's journal.
var OpenJournalFS = openJournal

// SpotCheckResults is SpotCheckParallel that also returns the Result of
// every pick it audited, by position in the policy's picks (nil: not
// audited). Picks past the one that stopped the pass may or may not have
// been audited by another worker; callers compare the prefix.
func (a *Auditor) SpotCheckResults(src SegmentSource, policy SpotPolicy, workers int) (*SpotCheckOutcome, []*Result, error) {
	var mu sync.Mutex
	var results []*Result
	out, err := a.spotCheck(src, policy, workers, func(i int, res *Result) {
		mu.Lock()
		defer mu.Unlock()
		for len(results) <= i {
			results = append(results, nil)
		}
		results[i] = res
	})
	return out, results, err
}
