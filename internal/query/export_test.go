package query

import (
	"context"

	"vortex/internal/client"
)

// UseRowFormLeaf swaps e's leaf scan for one that hands every batch
// over in row form, so each SELECT stage takes its row-at-a-time
// branch. Tests run it beside an unmodified engine as the parity
// oracle for the columnar leaf.
func UseRowFormLeaf(e *Engine) {
	e.leaf = func(ctx context.Context, plan *client.ScanPlan, a client.Assignment) (*client.ColBatch, error) {
		b, err := e.c.ScanBatch(ctx, plan, a)
		if err != nil {
			return nil, err
		}
		return &client.ColBatch{FragID: b.FragID, Rows: b.PosRows()}, nil
	}
}
