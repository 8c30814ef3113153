// want:none

// Package pub is importable by other modules, so its unused export is
// API, not dead code.
package pub

// Exported has no caller in this program.
func Exported() {}
