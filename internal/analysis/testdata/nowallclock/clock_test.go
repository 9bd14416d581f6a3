package dist

import "time"

// Tests fake or measure wall time freely; diagnostics in _test.go
// files are dropped, so this file produces no findings.
func waitInTest() {
	time.Sleep(time.Millisecond)
	_ = time.Now()
}
