// Package dead holds the exports unusedexport must flag.
package dead

// Unused has no caller anywhere.
func Unused() {} // want `exported func Unused has no non-test use`

// TestOnly is called only from dead_test.go, which the program does
// not include.
func TestOnly() int { return 1 } // want `exported func TestOnly has no non-test use`

// Rewind matches no interface method, so no call through one can
// reach it.
func (s *Stream) Rewind(n int) { s.pos -= n } // want `exported method Rewind has no non-test use`

// Orphan is never named outside its declaration.
type Orphan struct{} // want `exported type Orphan has no non-test use`

// Threshold and Limit are never read.
var Threshold = 3 // want `exported var Threshold has no non-test use`

const Limit = 4 // want `exported const Limit has no non-test use`
