package experiments

import (
	"repro/internal/campaign"
)

// RunCoverage executes a stimulus-coverage campaign and returns its
// detection matrix. A nil grid runs the committed default campaign
// (campaign.DefaultGrid): four stimuli spanning the drive/payload corners
// crossed with the whole extended fault catalogue. scale (when in (0, 1))
// overrides the grid's own, mirroring how the other experiment runners take
// -scale; the golden vector pins the default grid at reduced scale, where
// the matrix — including its documented escapes — is byte-reproducible at
// any worker count.
func RunCoverage(g *campaign.Grid, scale float64) (*campaign.DetectionMatrix, error) {
	grid := campaign.DefaultGrid()
	if g != nil {
		grid = *g
	}
	if scale > 0 && scale < 1 {
		grid.Scale = scale
	}
	return grid.Run()
}
