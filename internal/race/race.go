//go:build race

// Package race reports whether the race detector is compiled in. Allocation
// assertions (the testing.AllocsPerRun gates, TestDoHotPathAllocs among them)
// consult it: race instrumentation inserts allocations of its own, so
// zero-alloc invariants are only checkable in uninstrumented builds.
package race

// Enabled is true when the build carries the race detector.
const Enabled = true
