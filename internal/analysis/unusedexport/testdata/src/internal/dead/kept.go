// want:none

package dead

import "strconv"

// Used is called by cmd/tool.
func Used() int { return 2 }

// Counter is printed by cmd/tool; String is reached through
// fmt.Stringer, not by name.
type Counter int

func (c Counter) String() string { return "counter " + strconv.Itoa(int(c)) }

// Stream is drained by cmd/tool through its source interface; Next is
// reached through that interface, not by name.
type Stream struct{ pos int }

func (s *Stream) Next() (int, bool) {
	s.pos++
	return s.pos, s.pos < 3
}

// Kept stays for another module.
//
//lint:ignore unusedexport e2ebench: the benchmark module calls it
func Kept() {}
