//go:build fleetsweep

package bench

import "testing"

// TestFleetSweep is TestFleet over seeds 1–64, for CI:
// go test -tags fleetsweep ./internal/bench/ -run TestFleetSweep -v
// Its log is the scorecard EXPERIMENTS.md E26 carries.
func TestFleetSweep(t *testing.T) { checkFleetSeeds(t, 64, 47) }
