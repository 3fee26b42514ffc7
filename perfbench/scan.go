package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"vortex"
	"vortex/internal/rowenc"
	"vortex/internal/workload"
)

const (
	scanDays    = 8
	scanDevices = 1000 // workload.Gen string-pool size: distinct deviceIds
	loadBatch   = 1000 // rows per set-up append
	// scanCacheBytes is the DB read cache: at least twice the table's ROS
	// bytes, so queries are the fits-in-cache case. The read-session
	// server's own cache is fixed at 32 MiB, which must hold at most two
	// thirds of the table, so sessions are the larger-than-cache case.
	scanCacheBytes   = 192 << 20
	sessionCacheSize = 32 << 20
	scanShards       = 2
	// scanTraceBytes of random hex in every row's JSON payload make the
	// rows about half a kilobyte, so the table is large in bytes at a row
	// count the set-up can convert quickly.
	scanTraceBytes = 640
)

const hexDigits = "0123456789abcdef"

// shape is one of the four query shapes of the scan rotation.
type shape int

const (
	groupBy shape = iota
	dictEq
	rangeFilter
	timePruned
	nShapes
)

var shapeNames = [nShapes]string{"groupby", "dict_eq", "range_filter", "time_pruned"}

// countSum is a reference COUNT(*), SUM(latencyMs) pair.
type countSum struct{ n, sum int64 }

// scanRef holds the answers to every query the scan workload asks,
// computed in Go from the rows the benchmark generated.
type scanRef struct {
	rows      int64
	digest    uint64                // multiset digest of all rows
	byType    map[string]countSum   // GROUP BY eventType
	byDevice  [scanDevices]countSum // deviceId = ...
	byLatency [400]struct {         // latencyMs = v, for range filters
		n      int64
		digest uint64 // multiset digest of (deviceId, latencyMs)
	}
	byDay [scanDays]countSum
}

func (s *scanRef) add(row vortex.Row) {
	dev := row.Values[1].AsString()
	typ := row.Values[2].AsString()
	lat := row.Values[4].AsInt64()
	day := int(row.Values[0].AsTime().Sub(eventsBase) / (24 * time.Hour))
	var d int
	fmt.Sscanf(dev, "device-%d", &d)
	s.rows++
	s.digest += rowDigest(row)
	c := s.byType[typ]
	s.byType[typ] = countSum{c.n + 1, c.sum + lat}
	s.byDevice[d].n++
	s.byDevice[d].sum += lat
	s.byLatency[lat].n++
	s.byLatency[lat].digest += pairDigest(dev, lat)
	s.byDay[day].n++
	s.byDay[day].sum += lat
}

// rowDigest hashes a row's encoding; a table's digest is the wrapping sum
// over its rows, so it does not depend on the order rows arrive in.
func rowDigest(row vortex.Row) uint64 {
	h := fnv.New64a()
	h.Write(rowenc.AppendRow(nil, vortex.NewRow(row.Values...)))
	return mix64(h.Sum64())
}

func pairDigest(dev string, lat int64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(dev))
	return mix64(h.Sum64() ^ uint64(lat))
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// scanQuery is one query of the rotation with its reference answer.
type scanQuery struct {
	shape shape
	sql   string
	check func(res *vortex.Result) error
}

// scanQueries builds the rotation: query i has shape i%4, and its
// parameter (device, latency threshold, day) is drawn from the seed.
func scanQueries(table vortex.TableID, ref *scanRef, p *params, n int) []scanQuery {
	rng := rand.New(rand.NewSource(p.seed))
	qs := make([]scanQuery, 0, n)
	for i := 0; i < n; i++ {
		sh := shape(i % int(nShapes))
		var q scanQuery
		switch sh {
		case groupBy:
			q = scanQuery{sh, "SELECT eventType, COUNT(*) AS n, SUM(latencyMs) AS s FROM " + string(table) + " GROUP BY eventType",
				func(res *vortex.Result) error {
					rows := res.Rows()
					if len(rows) != len(ref.byType) {
						return mismatch("groupby: %d groups, want %d", len(rows), len(ref.byType))
					}
					for _, row := range rows {
						want := ref.byType[row[0].AsString()]
						if got := (countSum{row[1].AsInt64(), row[2].AsInt64()}); got != (countSum{p.ref(want.n), want.sum}) {
							return mismatch("groupby %s: got %v, want %v", row[0].AsString(), got, want)
						}
					}
					return nil
				}}
		case dictEq:
			d := rng.Intn(scanDevices)
			q = scanQuery{sh, fmt.Sprintf("SELECT COUNT(*) AS n, SUM(latencyMs) AS s FROM %s WHERE deviceId = 'device-%05d'", table, d),
				checkCountSum("dict_eq", ref.byDevice[d], p)}
		case rangeFilter:
			lo := 380 + rng.Intn(20)
			q = scanQuery{sh, fmt.Sprintf("SELECT deviceId, latencyMs FROM %s WHERE latencyMs >= %d", table, lo),
				func(res *vortex.Result) error {
					var wantN int64
					var wantD, gotD uint64
					for v := lo; v < len(ref.byLatency); v++ {
						wantN += ref.byLatency[v].n
						wantD += ref.byLatency[v].digest
					}
					rows := res.Rows()
					for _, row := range rows {
						gotD += pairDigest(row[0].AsString(), row[1].AsInt64())
					}
					if int64(len(rows)) != p.ref(wantN) || gotD != wantD {
						return mismatch("range_filter >= %d: %d rows, want %d (digest match %v)", lo, len(rows), wantN, gotD == wantD)
					}
					return nil
				}}
		case timePruned:
			d := rng.Intn(scanDays)
			from := eventsBase.AddDate(0, 0, d)
			q = scanQuery{sh, fmt.Sprintf("SELECT COUNT(*) AS n, SUM(latencyMs) AS s FROM %s WHERE eventTimestamp >= TIMESTAMP '%s' AND eventTimestamp < TIMESTAMP '%s'",
				table, from.Format("2006-01-02 15:04:05"), from.AddDate(0, 0, 1).Format("2006-01-02 15:04:05")),
				checkCountSum("time_pruned", ref.byDay[d], p)}
		}
		qs = append(qs, q)
	}
	return qs
}

func checkCountSum(name string, want countSum, p *params) func(*vortex.Result) error {
	return func(res *vortex.Result) error {
		rows := res.Rows()
		if len(rows) != 1 {
			return mismatch("%s: %d rows, want 1", name, len(rows))
		}
		got := countSum{rows[0][0].AsInt64(), rows[0][1].AsInt64()}
		if got.n == 0 {
			got.sum = 0 // SUM over no rows is NULL
		}
		if got != (countSum{p.ref(want.n), want.sum}) {
			return mismatch("%s: got %v, want %v", name, got, want)
		}
		return nil
	}
}

// runScan is the read-path workload. Set-up loads a keyless event table,
// finalizes its stream and converts it fully to ROS. Each round of the
// timed phase runs a slice of the query rotation on one client, then
// drains full-table read sessions with scanShards readers each.
func runScan(ctx context.Context, p *params) (*rep, error) {
	sz, tr := p.size, p.trace
	r := newRep()
	t0 := time.Now()
	db := vortex.Open(vortex.WithSeed(p.seed), vortex.WithReadCache(scanCacheBytes))
	tr.snap = counterSnapshot(db)
	setup := tr.request("setup", -1)
	table := vortex.TableID("bench.scan")
	ref, gen, err := loadScanTable(ctx, db, table, p, setup, r)
	if err != nil {
		return r, err
	}
	// The conversion's reads leave the converted WOS fragments in the
	// cache; the table's ROS bytes are what the warm-up adds.
	loaded := db.ReadCacheStats().SizeBytes
	qs := scanQueries(table, ref, p, sz.scanRounds*sz.scanRotations*int(nShapes))
	// Warm-up: one query of each shape fills the read cache; one
	// session runs the serving path once.
	for _, q := range qs[:nShapes] {
		if _, err := runScanQuery(ctx, db, q, tr, setup, r, nil); err != nil {
			return r, err
		}
	}
	if _, err := drainSession(ctx, db, table, tr, setup, r, nil, nil); err != nil {
		return r, err
	}
	cs := db.ReadCacheStats()
	ros := cs.SizeBytes - loaded
	r.obs["ros_bytes"] = float64(ros)
	if sz.scanCacheEdges && (cs.Evictions > 0 || cs.MaxBytes < 2*ros || 3*sessionCacheSize > 2*ros) {
		return r, fmt.Errorf("scan: %d ROS bytes leave a cache on its edge (DB cache %d of %d used, %d evictions, needs >= 2x; session cache %d needs <= 2/3)",
			ros, cs.SizeBytes, cs.MaxBytes, cs.Evictions, sessionCacheSize)
	}
	tr.end(setup)
	r.setup = time.Since(t0) - gen
	runtime.GC()

	timed := tr.request("timed", -1)
	start := time.Now()
	per := sz.scanRotations * int(nShapes)
	for k := 0; k < sz.scanRounds; k++ {
		rd := round{primary: make([]time.Duration, 0, per)}
		for _, q := range qs[k*per : (k+1)*per] {
			d, err := runScanQuery(ctx, db, q, tr, timed, r, r.obs)
			if err != nil {
				return r, err
			}
			rd.primary = append(rd.primary, d)
		}
		for i := 0; i < sz.scanSessions; i++ {
			t := time.Now()
			n, err := drainSession(ctx, db, table, tr, timed, r, r.obs, nil)
			if err != nil {
				return r, err
			}
			d := time.Since(t)
			rd.busy += d
			rd.aux = append(rd.aux, d)
			if want := p.ref(ref.rows); n != want {
				return r, mismatch("scan: session drained %d rows, table has %d", n, want)
			}
			rd.rows += n
		}
		r.rounds = append(r.rounds, rd)
	}
	r.wall = time.Since(start)
	tr.end(timed)
	r.heapMB = liveHeapMB(db)
	r.obs["rows.processed"] = r.obs["query.rows_scanned"] + r.obs["session.rows"]

	check := tr.request("check", -1)
	defer tr.end(check)
	var digest uint64
	n, err := drainSession(ctx, db, table, tr, check, r, nil, func(b *vortex.ReadBatch) {
		for _, s := range b.Rows() {
			digest += rowDigest(s.Row)
		}
	})
	if err != nil {
		return r, err
	}
	if n != ref.rows || digest != ref.digest {
		return r, mismatch("scan: session rows %d (digest match %v), table has %d", n, digest == ref.digest, ref.rows)
	}
	return r, nil
}

// loadScanTable appends sz.scanRows generated events spread evenly over
// scanDays days, finalizes the stream and converts the table to ROS. It
// returns the reference answers for the loaded rows and the time spent
// generating them, which is the benchmark's work, not set-up's.
func loadScanTable(ctx context.Context, db *vortex.DB, table vortex.TableID, p *params, parent int, r *rep) (*scanRef, time.Duration, error) {
	if err := db.CreateTable(ctx, table, workload.EventsSchema()); err != nil {
		return nil, 0, err
	}
	s, err := db.Table(table).NewStream(ctx, vortex.Unbuffered)
	if err != nil {
		return nil, 0, err
	}
	ref := &scanRef{byType: map[string]countSum{}}
	gen := workload.NewGen(p.seed, scanDevices)
	n := p.size.scanRows
	spacing := scanDays * 24 * time.Hour / time.Duration(n)
	rng := rand.New(rand.NewSource(p.seed))
	trace := make([]byte, scanTraceBytes)
	var generating time.Duration
	for lo := 0; lo < n; lo += loadBatch {
		t := time.Now()
		sp := p.trace.begin("generate", parent)
		rows := gen.EventRows(eventsBase.Add(time.Duration(lo)*spacing), min(loadBatch, n-lo), spacing)
		for i, row := range rows {
			for j := range trace {
				trace[j] = hexDigits[rng.Intn(16)]
			}
			payload, err := vortex.JSONValue(fmt.Sprintf(`{"ab_bucket":%d,"trace":"%s"}`, (lo+i)%8, trace))
			if err != nil {
				return nil, 0, err
			}
			row.Values[5] = payload
			ref.add(row)
		}
		p.trace.end(sp)
		generating += time.Since(t)
		if err := loadRows(ctx, s, rows, int64(lo), p.trace, parent, r); err != nil {
			return nil, 0, err
		}
	}
	if _, err := s.Finalize(ctx); err != nil {
		return nil, 0, err
	}
	var converted int64
	for {
		c, err := maintain(ctx, db, table, p.trace, parent, r)
		if err != nil {
			return nil, 0, err
		}
		if c == 0 {
			break
		}
		converted += c
	}
	if converted != int64(n) {
		return nil, 0, fmt.Errorf("scan: %d of %d rows converted to ROS", converted, n)
	}
	return ref, generating, nil
}

// runScanQuery runs one query, checks its answer, and returns its
// latency.
func runScanQuery(ctx context.Context, db *vortex.DB, q scanQuery, t *tracer, parent int, r *rep, obs map[string]float64) (time.Duration, error) {
	sp := t.request("query."+shapeNames[q.shape], parent)
	r.calls.Add(1)
	start := time.Now()
	res, err := db.Query(ctx, q.sql)
	d := time.Since(start)
	t.end(sp)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", q.sql, err)
	}
	if obs != nil {
		st := res.Stats
		obs["query.n"]++
		obs["query.assignments"] += float64(st.AssignmentsTotal)
		obs["query.pruned"] += float64(st.AssignmentsPruned)
		obs["query.rows_scanned"] += float64(st.RowsScanned)
		obs["query.code_skipped"] += float64(st.RowsCodeSkipped)
		obs["query.rows_decoded"] += float64(st.RowsDecoded)
	}
	return d, q.check(res)
}

// drainSession opens a full-table read session with scanShards shards and
// drains each shard on its own goroutine, passing every batch to visit
// when it is non-nil. It returns the rows read.
func drainSession(ctx context.Context, db *vortex.DB, table vortex.TableID, t *tracer, parent int, r *rep, obs map[string]float64, visit func(*vortex.ReadBatch)) (int64, error) {
	sp := t.request("session", parent)
	defer t.end(sp)
	op := t.begin("session.open", sp)
	sess, err := db.OpenReadSession(ctx, table, vortex.ReadSessionOptions{Shards: scanShards})
	t.end(op)
	r.calls.Add(1)
	if err != nil {
		return 0, err
	}
	shards := sess.Shards()
	counts := make([]int64, len(shards))
	errs := make([]error, len(shards))
	var mu sync.Mutex // serializes visit
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh *vortex.ReadShard) {
			defer wg.Done()
			for {
				nx := t.begin("session.next", sp)
				b, err := sh.Next(ctx)
				t.end(nx)
				if err == io.EOF {
					return
				}
				if err != nil {
					errs[i] = err
					return
				}
				counts[i] += int64(b.NumRows())
				if visit != nil {
					mu.Lock()
					visit(b)
					mu.Unlock()
				}
				sh.Commit()
			}
		}(i, sh)
	}
	wg.Wait()
	st := sess.Stats()
	if err := sess.Close(ctx); err != nil {
		return 0, err
	}
	var n int64
	for i := range shards {
		if errs[i] != nil {
			return 0, errs[i]
		}
		n += counts[i]
	}
	if obs != nil {
		obs["session.n"]++
		obs["session.rows"] += float64(n)
		obs["session.wire_bytes"] += float64(st.Bytes)
	}
	return n, nil
}
