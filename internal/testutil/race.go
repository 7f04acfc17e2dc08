// Package testutil holds the helpers more than one package's tests share.
package testutil

import "runtime/debug"

// RaceBuild reports whether the binary was built with -race, from the build
// settings the toolchain records. Allocation-count assertions skip on it: the
// race detector makes sync.Pool drop a share of its Puts on purpose and
// disables the compiler's append(s, make([]T, n)...) extend-in-place
// optimisation — artifacts of the build mode, not regressions.
func RaceBuild() bool {
	info, _ := debug.ReadBuildInfo()
	if info == nil {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
