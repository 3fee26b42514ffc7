package query_test

import (
	"fmt"
	"runtime"
	"testing"

	"vortex/internal/query"
	"vortex/internal/schema"
)

// TestAggregationShardParity pins that the two-stage aggregation is
// deterministic in the leaf-stage degree of parallelism: a sequential
// engine (Shards=1) and a fully parallel one (Shards=NumCPU) over the
// same region must produce identical results for every statement shape
// the merge stage handles. Each dataset spans ROS and live WOS so both
// columnar and row-form batches are exercised; the keyed table's
// change-resolved rows reach aggregation as Shards row-form chunks.
func TestAggregationShardParity(t *testing.T) {
	e := newQEnv(t, salesSchema(false), "d.shards")
	var sealed []schema.Row
	for i := 0; i < 180; i++ {
		sealed = append(sealed, saleRow(i%3, i, fmt.Sprintf("C-%d", i%7), int64(i%50)))
	}
	e.seal(t, "d.shards", sealed)
	if _, err := e.opt.ConvertTable(e.ctx, "d.shards"); err != nil {
		t.Fatal(err)
	}
	var live []schema.Row
	for i := 0; i < 60; i++ {
		live = append(live, saleRow(2, 1000+i, fmt.Sprintf("C-%d", i%7), int64(i)))
	}
	e.ingest(t, "d.shards", live)

	// The keyed twin holds the same rows as upserts, then re-upserts a
	// third of the converted keys and deletes a few in live WOS, so
	// change resolution spans ROS and WOS.
	if err := e.c.CreateTable(e.ctx, "d.kshards", salesSchema(true)); err != nil {
		t.Fatal(err)
	}
	upserts := func(rows []schema.Row) []schema.Row {
		out := make([]schema.Row, len(rows))
		for i, r := range rows {
			out[i] = r.WithChange(schema.ChangeUpsert)
		}
		return out
	}
	e.seal(t, "d.kshards", upserts(sealed))
	if _, err := e.opt.ConvertTable(e.ctx, "d.kshards"); err != nil {
		t.Fatal(err)
	}
	churn := upserts(live)
	for i := 0; i < 180; i += 3 {
		ch := schema.ChangeUpsert
		if i%9 == 0 {
			ch = schema.ChangeDelete
		}
		churn = append(churn, saleRow(i%3, i, fmt.Sprintf("C-%d", i%5), int64(i%40)).WithChange(ch))
	}
	e.ingest(t, "d.kshards", churn)

	seq := query.New(e.c, e.r.BigMeta, e.r.Net, e.r.Router(), query.Config{Shards: 1})
	par := query.New(e.c, e.r.BigMeta, e.r.Net, e.r.Router(), query.Config{Shards: runtime.NumCPU()})

	cases := []struct {
		name string
		sql  string
	}{
		{"grouped-all-aggregates", `
			SELECT customerKey, COUNT(*) AS n, SUM(qty) AS total, MIN(qty) AS lo, MAX(qty) AS hi, AVG(qty) AS mean
			FROM %[1]s GROUP BY customerKey ORDER BY customerKey`},
		{"global-aggregate", "SELECT COUNT(*), SUM(qty), MIN(qty), MAX(qty), AVG(qty) FROM %[1]s"},
		{"filtered-grouped", `
			SELECT customerKey, SUM(totalSale) AS rev FROM %[1]s
			WHERE qty >= 10 GROUP BY customerKey ORDER BY customerKey`},
		{"group-per-row", `
			SELECT salesOrderKey, COUNT(*) FROM %[1]s
			GROUP BY salesOrderKey ORDER BY salesOrderKey`},
		{"plain-select", `
			SELECT salesOrderKey, customerKey, qty FROM %[1]s
			WHERE customerKey = 'C-3' ORDER BY salesOrderKey`},
		{"empty-group-result", `
			SELECT customerKey, SUM(qty) FROM %[1]s
			WHERE qty > 100000 GROUP BY customerKey`},
	}
	for _, table := range []struct{ name, prefix string }{{"d.shards", ""}, {"d.kshards", "keyed/"}} {
		for _, tc := range cases {
			sqlText := fmt.Sprintf(tc.sql, table.name)
			t.Run(table.prefix+tc.name, func(t *testing.T) {
				a, err := seq.Query(e.ctx, sqlText)
				if err != nil {
					t.Fatalf("Shards=1: %v", err)
				}
				b, err := par.Query(e.ctx, sqlText)
				if err != nil {
					t.Fatalf("Shards=NumCPU: %v", err)
				}
				if len(a.Rows()) != len(b.Rows()) {
					t.Fatalf("row counts diverge: sequential %d, parallel %d", len(a.Rows()), len(b.Rows()))
				}
				for i := range a.Rows() {
					if got, want := fmt.Sprint(b.Rows()[i]), fmt.Sprint(a.Rows()[i]); got != want {
						t.Fatalf("row %d diverges:\nsequential: %s\nparallel:   %s", i, want, got)
					}
				}
			})
		}
	}
}
