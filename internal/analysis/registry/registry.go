// Package registry enumerates the cedvet analyzer suite in one place, so
// the cmd/cedvet binary and the in-process CI test run the same checks.
package registry

import (
	"ced/internal/analysis"
	"ced/internal/analysis/atomicsnap"
	"ced/internal/analysis/ctxflow"
	"ced/internal/analysis/poolleak"
	"ced/internal/analysis/rawhttp"
	"ced/internal/analysis/sessionshare"
	"ced/internal/analysis/stagecount"
)

// All returns the full cedvet suite in a stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicsnap.Analyzer,
		ctxflow.Analyzer,
		poolleak.Analyzer,
		rawhttp.Analyzer,
		sessionshare.Analyzer,
		stagecount.Analyzer,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
