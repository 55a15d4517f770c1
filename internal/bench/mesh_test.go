package bench

import (
	"testing"

	"infobus/internal/netsim"
)

// TestMeshLocalityGate is the CI-scale A14 check: on a 50-segment ring with
// flow subscribers on only two segments, the mesh must confine the
// publication to the subscriber-bearing end of the ring (`ibbench -fig a14`
// is the same measurement at 5 000 hosts).
func TestMeshLocalityGate(t *testing.T) {
	if testing.Short() {
		t.Skip("mesh locality gate is seconds-long; skipped in -short")
	}
	netCfg := netsim.Config{Speedup: 2000}
	row, err := MeasureMeshLocality(netCfg, 50, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mesh locality: %d/%d segments traversed, %d data frames",
		row.SegmentsTraversed, row.Segments, row.DataFrames)
	if row.SegmentsTraversed == 0 {
		t.Fatal("no data frames observed: flow never delivered")
	}
	// Publisher's segment plus the two subscriber segments, with one
	// segment of slack for the tree path.
	if row.SegmentsTraversed > 4 {
		t.Fatalf("mesh traversed %d segments, want <= 4 (publisher + 2 subscriber segments + slack)",
			row.SegmentsTraversed)
	}
}
