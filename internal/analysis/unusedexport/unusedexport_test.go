package unusedexport_test

import (
	"testing"

	"tradeoff/internal/analysis/analysistest"
	"tradeoff/internal/analysis/unusedexport"
)

func TestUnusedexport(t *testing.T) {
	analysistest.Run(t, "testdata", unusedexport.Analyzer, "internal/dead", "cmd/tool", "pub")
}
