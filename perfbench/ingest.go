package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vortex"
	"vortex/internal/rowenc"
	"vortex/internal/workload"
)

const (
	batchRows = 100
	poolSize  = 8 // pre-generated batches per writer, reused round-robin
	writers   = 2
	// fragmentBytes rotates WOS fragments often enough that every
	// maintenance pass has sealed fragments to convert.
	fragmentBytes = 256 << 10
)

var eventsBase = time.Date(2023, 10, 1, 0, 0, 0, 0, time.UTC)

type ingestWriter struct {
	s    *vortex.TrackedStream
	pool [][]vortex.Row
	size [poolSize]int // encoded bytes of each pool batch
	next int64         // offset of the next append

	lat []time.Duration
	err error
}

// runIngest is the write-path workload. Two writers append fixed
// 100-row batches to their own UNBUFFERED streams, each waiting for its
// ack, with offsets pinned. Every ingestEvery acknowledged batches (over
// both writers) the writer that crossed the mark runs one heartbeat
// round and one conversion pass, so the same background work overlaps
// the other writer's appends in every run.
func runIngest(ctx context.Context, p *params) (*rep, error) {
	sz, tr := p.size, p.trace
	r := newRep()
	// A small pool of batches, generated once and appended round-robin,
	// keeps input generation from driving the collector.
	gen := workload.NewGen(p.seed, 1000)
	ws := make([]*ingestWriter, writers)
	for i := range ws {
		w := &ingestWriter{lat: make([]time.Duration, 0, sz.ingestBatches)}
		for j := 0; j < poolSize; j++ {
			rows := gen.EventRows(eventsBase.Add(time.Duration(j)*5*time.Hour), batchRows, time.Second)
			w.pool = append(w.pool, rows)
			w.size[j] = len(rowenc.EncodeRows(rows))
		}
		ws[i] = w
	}

	t0 := time.Now()
	db := vortex.Open(vortex.WithSeed(p.seed), vortex.WithMaxFragmentBytes(fragmentBytes))
	tr.snap = counterSnapshot(db)
	setup := tr.request("setup", -1)
	table := vortex.TableID("bench.events")
	if err := db.CreateTable(ctx, table, workload.EventsSchema()); err != nil {
		return r, err
	}
	for _, w := range ws {
		s, err := db.Table(table).NewStream(ctx, vortex.Unbuffered)
		if err != nil {
			return r, err
		}
		w.s = vortex.Track(s, db.AppendLedger())
	}
	for _, w := range ws {
		for i := 0; i < sz.ingestWarm; i++ {
			if err := w.append(ctx, tr, setup, i, r); err != nil {
				return r, err
			}
		}
	}
	if _, err := maintain(ctx, db, table, tr, setup, r); err != nil {
		return r, err
	}
	tr.end(setup)
	r.setup = time.Since(t0)
	runtime.GC()

	timed := tr.request("timed", -1)
	var acked atomic.Int64
	// Passes run one at a time: a writer that crosses a mark while the
	// other's pass runs waits for it rather than skipping its own, so
	// every run makes the same passes.
	var maintMu sync.Mutex
	var aux []time.Duration // maintenance passes, under maintMu
	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range ws {
		wg.Add(1)
		go func(w *ingestWriter) {
			defer wg.Done()
			for i := 0; i < sz.ingestBatches; i++ {
				t := time.Now()
				if w.err = w.append(ctx, tr, timed, i, r); w.err != nil {
					return
				}
				w.lat = append(w.lat, time.Since(t))
				if acked.Add(1)%int64(sz.ingestEvery) != 0 {
					continue
				}
				maintMu.Lock()
				t = time.Now()
				_, w.err = maintain(ctx, db, table, tr, timed, r)
				aux = append(aux, time.Since(t))
				maintMu.Unlock()
				if w.err != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	r.wall = time.Since(start)
	tr.end(timed)
	r.heapMB = liveHeapMB(db)
	rd := round{busy: r.wall, aux: aux}
	for _, w := range ws {
		if w.err != nil {
			return r, w.err
		}
		rd.primary = append(rd.primary, w.lat...)
		for i := range w.lat {
			r.obs["append.user_bytes"] += float64(w.size[i%poolSize])
		}
	}
	rd.rows = int64(len(rd.primary) * batchRows)
	r.rounds = append(r.rounds, rd)
	r.obs["appends"] = float64(len(rd.primary))
	r.obs["append.rows"] = float64(rd.rows)
	r.obs["rows.processed"] = float64(rd.rows)

	check := tr.request("check", -1)
	defer tr.end(check)
	var total int64
	for _, w := range ws {
		total += w.next
	}
	db.Heartbeat(ctx)
	n, err := queryInt(ctx, db, "SELECT COUNT(*) FROM "+string(table))
	if err != nil {
		return r, err
	}
	if want := p.ref(total); n != want {
		return r, mismatch("ingest: COUNT(*) = %d, acknowledged rows = %d", n, want)
	}
	v, err := db.Verify(ctx, table)
	if err != nil {
		return r, err
	}
	if !v.OK() || v.RowsChecked != total {
		return r, mismatch("ingest: verification %s, acknowledged rows = %d", v, total)
	}
	for _, w := range ws {
		if err := closeStream(ctx, w.s.S); err != nil {
			return r, err
		}
	}
	return r, nil
}

// append writes pool batch i at the writer's next offset.
func (w *ingestWriter) append(ctx context.Context, tr *tracer, parent, i int, r *rep) error {
	sp := tr.request("append", parent)
	r.calls.Add(1)
	_, err := w.s.Append(ctx, w.pool[i%poolSize], vortex.AtOffset(w.next))
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("append at offset %d: %w", w.next, err)
	}
	w.next += batchRows
	return nil
}

// maintain runs one heartbeat round and one conversion pass on table and
// returns the rows converted. Callers serialize passes.
func maintain(ctx context.Context, db *vortex.DB, table vortex.TableID, tr *tracer, parent int, r *rep) (int64, error) {
	sp := tr.request("maintenance", parent)
	defer tr.end(sp)
	hb := tr.begin("heartbeat", sp)
	db.Heartbeat(ctx)
	tr.end(hb)
	op := tr.begin("optimize", sp)
	res, err := db.Optimize(ctx, table)
	tr.end(op)
	r.calls.Add(2)
	if err != nil {
		return 0, fmt.Errorf("optimize %s: %w", table, err)
	}
	r.obs["optimizer.rows"] += float64(res.RowsConverted)
	return res.RowsConverted, nil
}

// closeStream finalizes a stream, which closes its connection: the
// connection's goroutines would otherwise keep the region reachable
// into the next repetition.
func closeStream(ctx context.Context, s *vortex.Stream) error {
	_, err := s.Finalize(ctx)
	return err
}

// queryInt runs a query returning one integer.
func queryInt(ctx context.Context, db *vortex.DB, q string) (int64, error) {
	res, err := db.Query(ctx, q)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", q, err)
	}
	rows := res.Rows()
	if len(rows) != 1 || len(rows[0]) != 1 {
		return 0, fmt.Errorf("%s: got %d rows, want 1", q, len(rows))
	}
	return rows[0][0].AsInt64(), nil
}
