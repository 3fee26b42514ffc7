package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"vortex"
	"vortex/internal/rowenc"
)

const (
	cdcCountries = 20
	cdcAppend    = 100 // change rows per append
	cdcMaxQty    = 100
)

const (
	ordersTable    = vortex.TableID("bench.orders")
	customersTable = vortex.TableID("bench.customers")
	viewTable      = vortex.TableID("bench.bycountry")
)

// cdcModel is the Go-side model of the keyed tables: live orders and the
// customer → country map the view joins through.
type cdcModel struct {
	orders  map[int]order // by order number
	country []int         // by customer number
	next    int           // next new order number
}

type order struct{ cust, qty int }

func orderRow(id int, o order) vortex.Row {
	row := vortex.NewRow(vortex.StringValue(fmt.Sprintf("o%07d", id)),
		vortex.StringValue(fmt.Sprintf("c%05d", o.cust)), vortex.Int64Value(int64(o.qty)))
	row.Change = vortex.Upsert
	return row
}

func deleteRow(id int) vortex.Row {
	row := vortex.NewRow(vortex.StringValue(fmt.Sprintf("o%07d", id)), vortex.StringValue(""), vortex.NullValue())
	row.Change = vortex.Delete
	return row
}

// churn draws one epoch's changes and applies them to the model: about
// one in ten deletes a live order, one in five inserts a new order, and
// the rest re-key or re-price a live one.
func (m *cdcModel) churn(rng *rand.Rand, n int) []vortex.Row {
	rows := make([]vortex.Row, 0, n)
	for len(rows) < n {
		id := rng.Intn(m.next)
		o, live := m.orders[id]
		switch k := rng.Intn(10); {
		case k == 0 && live:
			delete(m.orders, id)
			rows = append(rows, deleteRow(id))
		case k <= 2:
			id, o = m.next, order{rng.Intn(len(m.country)), 1 + rng.Intn(cdcMaxQty)}
			m.next++
			m.orders[id] = o
			rows = append(rows, orderRow(id, o))
		case live:
			o = order{rng.Intn(len(m.country)), 1 + rng.Intn(cdcMaxQty)}
			m.orders[id] = o
			rows = append(rows, orderRow(id, o))
		}
	}
	return rows
}

// view returns the model's answer to the view's defining query: per
// country, the live order count and quantity sum.
func (m *cdcModel) view() map[string]countSum {
	out := make(map[string]countSum)
	for _, o := range m.orders {
		k := fmt.Sprintf("C%02d", m.country[o.cust])
		c := out[k]
		out[k] = countSum{c.n + 1, c.sum + int64(o.qty)}
	}
	return out
}

// atLeast returns the model's COUNT(*), SUM(qty) over orders with
// qty >= lo.
func (m *cdcModel) atLeast(lo int) countSum {
	var c countSum
	for _, o := range m.orders {
		if o.qty >= lo {
			c.n++
			c.sum += int64(o.qty)
		}
	}
	return c
}

// runCDC is the writes-beside-reads workload: a primary-keyed orders
// table joined to a small keyed customers table under a GROUP BY
// materialized view. Each epoch one goroutine appends a fixed churn of
// upserts and deletes, refreshes the view, and runs a filtered
// aggregate on orders.
func runCDC(ctx context.Context, p *params) (*rep, error) {
	sz, tr := p.size, p.trace
	r := newRep()
	rng := rand.New(rand.NewSource(p.seed))
	m, crows, orows := newCDCModel(rng, sz)
	t0 := time.Now()
	db := vortex.Open(vortex.WithSeed(p.seed))
	tr.snap = counterSnapshot(db)
	setup := tr.request("setup", -1)
	orders, err := loadCDCTables(ctx, db, crows, orows, tr, setup, r)
	if err != nil {
		return r, err
	}
	sp := tr.request("view_build", setup)
	v, err := db.CreateMaterializedView(ctx, `CREATE MATERIALIZED VIEW `+string(viewTable)+` AS
SELECT c.country AS country, COUNT(*) AS orders, SUM(o.qty) AS qty
FROM `+string(ordersTable)+` AS o JOIN `+string(customersTable)+` AS c ON o.customerKey = c.customerKey
GROUP BY c.country`)
	tr.end(sp)
	r.calls.Add(1)
	if err != nil {
		return r, err
	}
	if err := checkView(ctx, db, m, p); err != nil {
		return r, err
	}
	tr.end(setup)
	r.setup = time.Since(t0)
	runtime.GC()

	x := &cdcState{db: db, v: v, orders: orders, m: m, rng: rng, tr: tr, r: r, p: p, next: int64(sz.cdcOrders)}
	x.timed = tr.request("timed", -1)
	start := time.Now()
	var checking time.Duration
	for k := 0; k < sz.cdcRounds; k++ {
		rd := round{primary: make([]time.Duration, 0, sz.cdcEpochs), aux: make([]time.Duration, 0, sz.cdcEpochs)}
		t := time.Now()
		for e := 0; e < sz.cdcEpochs; e++ {
			if err := x.epoch(ctx, &rd); err != nil {
				return r, fmt.Errorf("round %d epoch %d: %w", k, e, err)
			}
		}
		rd.busy = time.Since(t) - x.checking
		checking += x.checking
		// The view check ends the round and is not timed.
		c := time.Now()
		ck := tr.request("check", x.timed)
		err := checkView(ctx, db, m, p)
		tr.end(ck)
		if err != nil {
			return r, fmt.Errorf("round %d: %w", k, err)
		}
		checking += time.Since(c)
		x.checking = 0
		r.rounds = append(r.rounds, rd)
	}
	r.wall = time.Since(start) - checking
	tr.end(x.timed)
	r.heapMB = liveHeapMB(db)
	r.obs["append.rows"] = float64(x.rows)
	r.obs["rows.processed"] = float64(x.rows)
	return r, closeStream(ctx, orders)
}

// cdcState is the state the epochs of one repetition share.
type cdcState struct {
	db     *vortex.DB
	v      *vortex.MaterializedView
	orders *vortex.Stream
	m      *cdcModel
	rng    *rand.Rand
	tr     *tracer
	timed  int
	r      *rep
	p      *params

	next     int64         // orders stream offset
	rows     int64         // change rows appended
	checking time.Duration // spent on reference checks in this round
}

// epoch appends one churn, refreshes the view and runs the filtered
// aggregate, recording the view lag and the query latency in rd.
func (x *cdcState) epoch(ctx context.Context, rd *round) error {
	tr, r := x.tr, x.r
	ep := tr.request("epoch", x.timed)
	defer tr.end(ep)
	rows := x.m.churn(x.rng, x.p.size.cdcChurn)
	var acked time.Time
	for lo := 0; lo < len(rows); lo += cdcAppend {
		batch := rows[lo:min(lo+cdcAppend, len(rows))]
		as := tr.begin("append", ep)
		r.calls.Add(1)
		_, err := x.orders.Append(ctx, batch, vortex.AtOffset(x.next))
		acked = time.Now()
		tr.end(as)
		if err != nil {
			return fmt.Errorf("append at offset %d: %w", x.next, err)
		}
		x.next += int64(len(batch))
		r.obs["appends"]++
		r.obs["append.user_bytes"] += float64(len(rowenc.EncodeRows(batch)))
	}
	x.rows += int64(len(rows))
	rd.rows += int64(len(rows))

	rs := tr.measure("refresh", ep)
	r.calls.Add(1)
	st, err := x.v.Refresh(ctx)
	lag := time.Since(acked)
	tr.end(rs)
	if err != nil {
		return fmt.Errorf("refresh: %w", err)
	}
	rd.primary = append(rd.primary, lag)
	r.obs["refresh.n"]++
	r.obs["refresh.events"] += float64(st.Events)
	r.obs["refresh.groups_changed"] += float64(st.GroupsChanged)
	r.obs["refresh.view_rows_written"] += float64(st.Upserts + st.Deletes)

	lo := 1 + x.rng.Intn(cdcMaxQty)
	qs := tr.begin("query.pk_filter", ep)
	r.calls.Add(1)
	q := time.Now()
	res, err := x.db.Query(ctx, fmt.Sprintf("SELECT COUNT(*) AS n, SUM(qty) AS s FROM %s WHERE qty >= %d", ordersTable, lo))
	rd.aux = append(rd.aux, time.Since(q))
	tr.end(qs)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	r.obs["pk_query.n"]++
	r.obs["pk_query.rows_scanned"] += float64(res.Stats.RowsScanned)
	r.obs["pk_query.rows_decoded"] += float64(res.Stats.RowsDecoded)

	c := time.Now()
	err = checkCountSum("pk_filter", x.m.atLeast(lo), x.p)(res)
	x.checking += time.Since(c)
	return err
}

// newCDCModel generates the customers and the base orders: the model
// and the change rows that load them.
func newCDCModel(rng *rand.Rand, sz sizes) (m *cdcModel, customers, orders []vortex.Row) {
	m = &cdcModel{orders: make(map[int]order, sz.cdcOrders), country: make([]int, sz.cdcCustomers)}
	for i := range m.country {
		m.country[i] = rng.Intn(cdcCountries)
		row := vortex.NewRow(vortex.StringValue(fmt.Sprintf("c%05d", i)), vortex.StringValue(fmt.Sprintf("C%02d", m.country[i])))
		row.Change = vortex.Upsert
		customers = append(customers, row)
	}
	for ; m.next < sz.cdcOrders; m.next++ {
		o := order{rng.Intn(len(m.country)), 1 + rng.Intn(cdcMaxQty)}
		m.orders[m.next] = o
		orders = append(orders, orderRow(m.next, o))
	}
	return m, customers, orders
}

// loadCDCTables creates the keyed tables, loads them, and returns the
// orders stream, left open for the churn.
func loadCDCTables(ctx context.Context, db *vortex.DB, crows, orows []vortex.Row, t *tracer, parent int, r *rep) (*vortex.Stream, error) {
	if err := db.CreateTable(ctx, ordersTable, &vortex.Schema{
		Fields: []*vortex.Field{
			{Name: "orderId", Kind: vortex.StringKind, Mode: vortex.Required},
			{Name: "customerKey", Kind: vortex.StringKind, Mode: vortex.Required},
			{Name: "qty", Kind: vortex.Int64Kind, Mode: vortex.Nullable},
		},
		PrimaryKey: []string{"orderId"},
	}); err != nil {
		return nil, err
	}
	if err := db.CreateTable(ctx, customersTable, &vortex.Schema{
		Fields: []*vortex.Field{
			{Name: "customerKey", Kind: vortex.StringKind, Mode: vortex.Required},
			{Name: "country", Kind: vortex.StringKind, Mode: vortex.Required},
		},
		PrimaryKey: []string{"customerKey"},
	}); err != nil {
		return nil, err
	}
	customers, err := db.Table(customersTable).NewStream(ctx, vortex.Unbuffered)
	if err != nil {
		return nil, err
	}
	if err := loadRows(ctx, customers, crows, 0, t, parent, r); err != nil {
		return nil, err
	}
	if err := closeStream(ctx, customers); err != nil {
		return nil, err
	}
	orders, err := db.Table(ordersTable).NewStream(ctx, vortex.Unbuffered)
	if err != nil {
		return nil, err
	}
	return orders, loadRows(ctx, orders, orows, 0, t, parent, r)
}

// loadRows appends rows in set-up batches of loadBatch rows, pinning
// the offsets from off.
func loadRows(ctx context.Context, s *vortex.Stream, rows []vortex.Row, off int64, t *tracer, parent int, r *rep) error {
	for lo := 0; lo < len(rows); lo += loadBatch {
		sp := t.request("append", parent)
		r.calls.Add(1)
		at := off + int64(lo)
		_, err := s.Append(ctx, rows[lo:min(lo+loadBatch, len(rows))], vortex.AtOffset(at))
		t.end(sp)
		if err != nil {
			return fmt.Errorf("load append at offset %d: %w", at, err)
		}
	}
	return nil
}

// checkView compares the view with the model.
func checkView(ctx context.Context, db *vortex.DB, m *cdcModel, p *params) error {
	res, err := db.Query(ctx, "SELECT country, orders, qty FROM "+string(viewTable))
	if err != nil {
		return err
	}
	want := m.view()
	rows := res.Rows()
	if len(rows) != len(want) {
		return mismatch("view: %d groups, want %d", len(rows), len(want))
	}
	for _, row := range rows {
		w := want[row[0].AsString()]
		if got := (countSum{row[1].AsInt64(), row[2].AsInt64()}); got != (countSum{p.ref(w.n), w.sum}) {
			return mismatch("view %s: got %v, want %v", row[0].AsString(), got, w)
		}
	}
	return nil
}
