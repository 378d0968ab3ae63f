package analysis_test

import (
	"testing"

	"neurospatial/internal/analysis/antest"
)

// TestSummaries pins the interprocedural summaries of the fixture package:
// acquire/release flow (including the error-result holder regression),
// pool puts, parameter retention, lock sets, and file-effect classification
// and propagation.
func TestSummaries(t *testing.T) {
	antest.RunSummaries(t, "testdata/summaries")
}
