package audit

import (
	"os"
)

// SabotageWrites makes every later journal write fail the way a dead disk
// would — the file handle is swapped for a read-only one — and returns a
// function that puts the working handle back, for tests that check the
// failure stays sticky even once writes would succeed again.
func (j *Journal) SabotageWrites() (restore func(), err error) {
	ro, err := os.Open(j.path)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	good := j.f
	j.f = ro
	j.mu.Unlock()
	return func() {
		j.mu.Lock()
		j.f = good
		j.mu.Unlock()
		ro.Close()
	}, nil
}
