package main

// layerMetrics reduces the traced repetitions to the per-layer metrics.
// Every workload reports every metric; a layer the workload bypasses
// reads 0. Ratios name their base:
//
//   - per append, per row, per user byte: over the timed phase, so they
//     include the background work the appends trigger (heartbeats and
//     conversion in ingest; view refreshes and queries in cdc);
//   - per query, per session, per refresh: over the request spans of
//     that kind, whose counter deltas are exact because the scan and cdc
//     callers run one request at a time;
//   - *_ms: mean span duration; self_ms.*: a layer's self time per
//     repetition's timed phase (its spans' time not covered by child
//     spans), summed over concurrent callers.
//
// trace.overhead_pct compares the timed-phase wall time of the traced
// repetitions with that of the untraced ones.
func layerMetrics(agg map[string]*spanAgg, untraced, traced []*rep) map[string]metric {
	obs := map[string]float64{}
	var wallT, wallU []float64
	for _, r := range traced {
		for k, v := range r.obs {
			obs[k] += v
		}
		wallT = append(wallT, r.wall.Seconds())
	}
	for _, r := range untraced {
		wallU = append(wallU, r.wall.Seconds())
	}
	reps := float64(len(traced))
	span := func(key string) *spanAgg {
		if a := agg[key]; a != nil {
			return a
		}
		return &spanAgg{counts: map[string]float64{}}
	}
	timed := span("timed/timed").counts
	appends, appendRows := obs["appends"], obs["append.rows"]

	var queries spanAgg
	queries.counts = map[string]float64{}
	for _, s := range shapeNames {
		a := span("timed/query." + s)
		queries.n += a.n
		for k, v := range a.counts {
			queries.counts[k] += v
		}
	}
	q := queries.counts
	sessions := span("timed/session")
	refresh := span("timed/refresh")

	selfMS := func(names ...string) float64 {
		var total float64
		for _, n := range names {
			total += ms(span("timed/" + n).self)
		}
		return ratio(total, reps)
	}

	out := map[string]metric{
		"rpc.unary_calls_per_append":           {ratio(timed["rpc.unary_calls"], appends), "count"},
		"rpc.stream_msgs_per_append":           {ratio(timed["rpc.stream_msgs"], appends), "count"},
		"streamserver.bytes_per_row":           {ratio(timed["streamserver.bytes_appended"], appendRows), "B"},
		"colossus.write_ops_per_append":        {ratio(timed["colossus.write_ops"], appends), "count"},
		"colossus.bytes_written_per_user_byte": {ratio(timed["colossus.bytes_written"], obs["append.user_bytes"]), "ratio"},
		"sms.heartbeat_ms":                     {span("*/heartbeat").meanMS(), "ms"},
		"optimizer.convert_ms":                 {span("*/optimize").meanMS(), "ms"},
		"optimizer.convert_rows_per_s":         {ratio(obs["optimizer.rows"], span("*/optimize").dur.Seconds()), "1/s"},
		"client.retries":                       {ratio(timed["client.retries"], reps), "count"},
		"client.rotations":                     {ratio(timed["client.rotations"], reps), "count"},
		"runtime.alloc_bytes_per_row":          {ratio(timed["runtime.alloc_bytes"], obs["rows.processed"]), "B"},
		"runtime.gc_cycles":                    {ratio(timed["runtime.gc_cycles"], reps), "count"},
		"runtime.gc_cpu_fraction":              {ratio(timed["runtime.gc_cpu_s"], timed["runtime.cpu_s"]), "ratio"},

		"query.groupby_ms":              {span("timed/query.groupby").meanMS(), "ms"},
		"query.dict_eq_ms":              {span("timed/query.dict_eq").meanMS(), "ms"},
		"query.range_filter_ms":         {span("timed/query.range_filter").meanMS(), "ms"},
		"query.time_pruned_ms":          {span("timed/query.time_pruned").meanMS(), "ms"},
		"bigmeta.pruned_ratio":          {ratio(obs["query.pruned"], obs["query.assignments"]), "ratio"},
		"query.code_skipped_ratio":      {ratio(obs["query.code_skipped"], obs["query.rows_scanned"]), "ratio"},
		"query.rows_decoded_per_query":  {ratio(obs["query.rows_decoded"], obs["query.n"]), "count"},
		"client.cache_hit_ratio":        {ratio(q["client.cache_hits"], q["client.cache_hits"]+q["client.cache_misses"]), "ratio"},
		"client.cache_evictions":        {ratio(q["client.cache_evictions"], reps), "count"},
		"colossus.read_ops_per_query":   {ratio(q["colossus.read_ops"], float64(queries.n)), "count"},
		"colossus.bytes_read_per_query": {ratio(q["colossus.bytes_read"], float64(queries.n)), "B"},
		"ros.table_mb":                  {ratio(obs["ros_bytes"], reps) / (1 << 20), "MB"},

		"readsession.open_ms":            {span("timed/session.open").meanMS(), "ms"},
		"readsession.next_ms":            {span("timed/session.next").meanMS(), "ms"},
		"readsession.wire_bytes_per_row": {ratio(obs["session.wire_bytes"], obs["session.rows"]), "B"},
		"colossus.read_ops_per_session":  {ratio(sessions.counts["colossus.read_ops"], float64(sessions.n)), "count"},

		"query.pk_rows_scanned_per_query":        {ratio(obs["pk_query.rows_scanned"], obs["pk_query.n"]), "count"},
		"query.pk_rows_decoded_per_query":        {ratio(obs["pk_query.rows_decoded"], obs["pk_query.n"]), "count"},
		"matview.source_bytes_per_event":         {ratio(refresh.counts["readsession.bytes_served"], obs["refresh.events"]), "B"},
		"matview.events_per_refresh":             {ratio(obs["refresh.events"], obs["refresh.n"]), "count"},
		"matview.groups_changed_per_refresh":     {ratio(obs["refresh.groups_changed"], obs["refresh.n"]), "count"},
		"dataflow.view_rows_written_per_refresh": {ratio(obs["refresh.view_rows_written"], obs["refresh.n"]), "count"},

		"self_ms.append":      {selfMS("append"), "ms"},
		"self_ms.sms":         {selfMS("heartbeat"), "ms"},
		"self_ms.optimizer":   {selfMS("optimize"), "ms"},
		"self_ms.query":       {selfMS("query.groupby", "query.dict_eq", "query.range_filter", "query.time_pruned", "query.pk_filter"), "ms"},
		"self_ms.readsession": {selfMS("session.open", "session.next"), "ms"},
		"self_ms.matview":     {selfMS("refresh"), "ms"},
		"self_ms.bench":       {selfMS("timed", "maintenance", "session", "epoch"), "ms"},
		"trace.overhead_pct":  {100 * (ratio(median(wallT), median(wallU)) - 1), "%"},
	}
	return out
}
