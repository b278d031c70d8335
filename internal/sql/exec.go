package sql

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/big"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"jackpine/internal/geom"
	"jackpine/internal/index/btree"
	"jackpine/internal/overlay"
	"jackpine/internal/storage"
)

// Result is the outcome of executing a statement.
type Result struct {
	// Columns names the output columns (queries only).
	Columns []string
	// Rows holds the materialized result rows (queries only).
	Rows [][]storage.Value
	// Affected counts modified rows (DML) or is 0 for DDL.
	Affected int
	// Access describes the chosen access paths per table binding, for
	// inspection by tests and the benchmark reporter.
	Access []string
}

// BatchSize is the number of row slots per column batch. Large enough
// to amortize per-batch overhead, small enough that a batch's arena and
// row backing stay cache-resident.
const BatchSize = 256

// Runner binds a catalog and function registry into a statement
// executor. Its configuration is fixed at NewRunner.
type Runner struct {
	cat   Catalog
	reg   *Registry
	par   int  // worker pool size for parallel-eligible queries (>= 1)
	prep  bool // prepare constant sides of topological predicates
	batch bool // batch-at-a-time stage-0 execution

	// Batch activity counters (equivalence tests assert the intended
	// path actually ran): batches processed and rows entering the batch
	// filter cascade.
	batchBatches atomic.Int64
	batchRows    atomic.Int64

	// Spatial-join strategy and activity counters.
	joinStrategy JoinStrategy
	joinINL      atomic.Int64
	joinPBSM     atomic.Int64
	pbsmCells    atomic.Int64
	pbsmDedup    atomic.Int64
	pbsmHits     atomic.Int64

	// rowPool recycles emitted join tuples for sinks that never retain
	// them (aggregation copies what it keeps); see pbsmSpec.reuseRows.
	rowPool sync.Pool

	// pbsmCache retains built sweep states across statements, keyed by
	// join shape and validated against table data versions on every
	// acquisition. Guarded by pbsmMu.
	pbsmMu    sync.Mutex
	pbsmCache map[pbsmKey]*pbsmEntry
}

// getRow leases a tuple buffer of at least the given width from the
// pool; putRow returns it. Only plans whose sink provably copies
// emitted rows (pbsmSpec.reuseRows) may recycle buffers this way.
func (r *Runner) getRow(width int) []storage.Value {
	if b, ok := r.rowPool.Get().(*[]storage.Value); ok && cap(*b) >= width {
		return (*b)[:width]
	}
	return make([]storage.Value, width)
}

func (r *Runner) putRow(b []storage.Value) {
	r.rowPool.Put(&b)
}

// NewRunner creates an executor over the catalog using the registry's
// function semantics. par sizes the worker pool of parallel-eligible
// plans (<= 0 means GOMAXPROCS, 1 forces serial execution); prep
// enables prepared-geometry evaluation of topological predicates (the
// constant query window in filters, the outer row of index-nested-loop
// spatial joins); batch enables batch-at-a-time stage-0 execution
// (plans batching does not cover — kNN, index seeks, bare LIMIT — use
// the row path regardless); strat selects the spatial-join strategy.
func NewRunner(cat Catalog, reg *Registry, par int, prep, batch bool, strat JoinStrategy) *Runner {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return &Runner{cat: cat, reg: reg, par: par, prep: prep, batch: batch, joinStrategy: strat}
}

// BatchStats returns the cumulative batch activity: batches processed
// and rows that entered the batch filter cascade. Zero while batch
// execution is disabled or never eligible.
func (r *Runner) BatchStats() (batches, rows int64) {
	return r.batchBatches.Load(), r.batchRows.Load()
}

// Registry returns the function registry (engine feature inspection).
func (r *Runner) Registry() *Registry { return r.reg }

// Run parses and executes one SQL statement.
func (r *Runner) Run(query string) (*Result, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return r.Execute(stmt)
}

// Execute runs a parsed statement.
func (r *Runner) Execute(stmt Statement) (*Result, error) {
	switch t := stmt.(type) {
	case *CreateTable:
		if err := r.cat.CreateTable(t.Name, t.Columns); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *CreateIndex:
		if err := r.cat.CreateIndex(t.Name, t.Table, t.Columns, t.Spatial); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *Insert:
		return r.execInsert(t)
	case *Select:
		return r.execSelect(t, false)
	case *Explain:
		return r.execSelect(t.Query, true)
	case *Vacuum:
		if err := r.cat.Vacuum(t.Table); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *DropTable:
		if err := r.cat.DropTable(t.Table, t.IfExists); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *Update:
		return r.execUpdate(t)
	case *Delete:
		return r.execDelete(t)
	}
	return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
}

func (r *Runner) table(name string) (Table, error) {
	tbl, ok := r.cat.Table(name)
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", name)
	}
	return tbl, nil
}

// --- INSERT -------------------------------------------------------------

func (r *Runner) execInsert(ins *Insert) (*Result, error) {
	tbl, err := r.table(ins.Table)
	if err != nil {
		return nil, err
	}
	cols := tbl.Columns()
	emptyScope := NewScope()
	n := 0
	for _, rowExprs := range ins.Rows {
		if len(rowExprs) != len(cols) {
			return nil, fmt.Errorf("sql: INSERT into %s needs %d values, got %d",
				ins.Table, len(cols), len(rowExprs))
		}
		row := make([]storage.Value, len(cols))
		for i, e := range rowExprs {
			if err := Bind(e, emptyScope, r.reg, false); err != nil {
				return nil, err
			}
			v, err := Eval(e, nil, r.reg)
			if err != nil {
				return nil, err
			}
			cv, err := coerce(v, cols[i])
			if err != nil {
				return nil, err
			}
			row[i] = cv
		}
		if _, err := tbl.Insert(row); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

// coerce adapts a value to a column type where a lossless conversion
// exists.
func coerce(v storage.Value, col Column) (storage.Value, error) {
	if v.IsNull() || v.Type == col.Type {
		return v, nil
	}
	switch {
	case col.Type == storage.TypeFloat && v.Type == storage.TypeInt:
		return storage.NewFloat(float64(v.Int)), nil
	case col.Type == storage.TypeInt && v.Type == storage.TypeFloat && v.Float == float64(int64(v.Float)):
		return storage.NewInt(int64(v.Float)), nil
	case col.Type == storage.TypeGeom && v.Type == storage.TypeText:
		g, err := geom.ParseWKT(v.Text)
		if err != nil {
			return storage.Null(), fmt.Errorf("sql: column %s: %w", col.Name, err)
		}
		return storage.NewGeom(g), nil
	}
	return storage.Null(), fmt.Errorf("sql: cannot store %s in %s column %s", v.Type, col.Type, col.Name)
}

// --- SELECT -------------------------------------------------------------

// emitFn receives rows; returning false stops production.
type emitFn func(row []storage.Value) (bool, error)

func (r *Runner) execSelect(sel *Select, explainOnly bool) (*Result, error) {
	// Build the scope over FROM + JOIN tables.
	type boundTable struct {
		tbl     Table
		binding string
		lo, hi  int
	}
	scope := NewScope()
	var tables []boundTable
	addTable := func(ref *TableRef) error {
		tbl, err := r.table(ref.Table)
		if err != nil {
			return err
		}
		lo := scope.Len()
		scope.AddTable(ref.Name(), tbl.Columns())
		tables = append(tables, boundTable{tbl: tbl, binding: ref.Name(), lo: lo, hi: scope.Len()})
		return nil
	}
	if sel.From == nil {
		return nil, fmt.Errorf("sql: SELECT requires FROM")
	}
	if err := addTable(sel.From); err != nil {
		return nil, err
	}
	for _, j := range sel.Joins {
		if err := addTable(j.Table); err != nil {
			return nil, err
		}
	}

	// Bind expressions.
	hasAgg := len(sel.GroupBy) > 0
	for i := range sel.Exprs {
		if sel.Exprs[i].Star {
			continue
		}
		if err := Bind(sel.Exprs[i].Expr, scope, r.reg, true); err != nil {
			return nil, err
		}
		if HasAggregate(sel.Exprs[i].Expr) {
			hasAgg = true
		}
	}
	var conjuncts []Expr
	if sel.Where != nil {
		if err := Bind(sel.Where, scope, r.reg, false); err != nil {
			return nil, err
		}
		conjuncts = splitConjuncts(sel.Where)
	}
	for i := range sel.Joins {
		if err := Bind(sel.Joins[i].On, scope, r.reg, false); err != nil {
			return nil, err
		}
		conjuncts = append(conjuncts, splitConjuncts(sel.Joins[i].On)...)
	}
	for _, g := range sel.GroupBy {
		if err := Bind(g, scope, r.reg, false); err != nil {
			return nil, err
		}
	}
	if !hasAgg {
		for i := range sel.OrderBy {
			if err := Bind(sel.OrderBy[i].Expr, scope, r.reg, false); err != nil {
				return nil, err
			}
		}
	}

	// Prepare the constant side of topological predicates once per
	// execution (the literal query window of the micro queries), on
	// this execution's private tree, before any worker fan-out.
	installExprs := make([]Expr, 0, len(conjuncts)+len(sel.Exprs))
	for _, c := range conjuncts {
		installExprs = append(installExprs, c)
	}
	for i := range sel.Exprs {
		if !sel.Exprs[i].Star {
			installExprs = append(installExprs, sel.Exprs[i].Expr)
		}
	}
	r.installPrepared(installExprs...)

	// Choose access paths: each conjunct is attached to the earliest
	// pipeline stage at which all of its references are available.
	stageFilters := make([][]Expr, len(tables))
	paths := make([]accessPath, len(tables))
	for i, bt := range tables {
		paths[i] = pickAccess(bt.tbl, bt.lo, bt.hi, scope, conjuncts)
	}
	// kNN upgrade for the single-table pattern.
	knn := false
	if !hasAgg && len(tables) == 1 && paths[0].kind == accessFullScan {
		if err := bindOrderByEarly(sel, scope, r.reg); err == nil {
			if p, ok := tryKNN(sel, tables[0].tbl, scope); ok {
				paths[0] = p
				knn = true
			}
		}
	}
	for _, c := range conjuncts {
		m := maxRef(c)
		stage := 0
		for i, bt := range tables {
			if m < bt.hi {
				stage = i
				break
			}
		}
		stageFilters[stage] = append(stageFilters[stage], c)
	}
	// Spatial-predicate joins over exactly two tables may swap the
	// per-outer-row index probe for a partitioned sweep (PBSM). Mutates
	// paths[1] and, in fast-refine mode, stageFilters[1] — so it must
	// run before the prep-spec and batch classification below.
	if len(tables) == 2 {
		r.planPBSM(scope, conjuncts, stageFilters, paths,
			tables[0].tbl, tables[1].tbl, tables[1].lo, tables[1].hi)
		if paths[1].kind == accessPBSM {
			// The aggregation sink copies the rows it keeps, so the
			// sweep's emit loops may recycle tuple buffers.
			paths[1].pbsm.reuseRows = hasAgg
		}
	}
	// Join stages: mark residual spatial predicates whose one side is
	// fixed by the outer row, so each produce invocation prepares the
	// outer geometry once instead of re-decomposing it per inner row.
	stagePrep := make([][]prepFilterSpec, len(tables))
	for i, bt := range tables {
		stagePrep[i] = r.joinPrepSpecs(stageFilters[i], bt.lo)
	}

	// Column pruning: mark every scope column the plan references so
	// scans and fetches can skip decoding the rest. ORDER BY only reads
	// scope columns on the non-aggregate path (grouped ORDER BY keys
	// name output columns).
	need := make([]bool, scope.Len())
	markRefs := func(e Expr) { markColumnRefs(need, e) }
	allCols := false
	for _, se := range sel.Exprs {
		if se.Star {
			allCols = true
			continue
		}
		markRefs(se.Expr)
	}
	for _, c := range conjuncts {
		markRefs(c)
	}
	for _, g := range sel.GroupBy {
		markRefs(g)
	}
	if !hasAgg {
		for i := range sel.OrderBy {
			markRefs(sel.OrderBy[i].Expr)
		}
	}
	if !allCols {
		for i, bt := range tables {
			paths[i].need = need[bt.lo:bt.hi]
		}
	}

	// Batch eligibility for the stage-0 scan, and — when eligible —
	// ephemeral classification: stage-0 geometry columns that only this
	// stage's filters read may be decoded into recycled arena memory,
	// since emitted survivor rows NULL them before anything downstream
	// could observe the value.
	bt0, batchOK := r.batchEligible(sel, tables[0].tbl, paths[0].kind, hasAgg, knn)
	if batchOK && !allCols {
		needElse := make([]bool, scope.Len())
		markElse := func(e Expr) { markColumnRefs(needElse, e) }
		for _, se := range sel.Exprs {
			if !se.Star {
				markElse(se.Expr)
			}
		}
		for _, g := range sel.GroupBy {
			markElse(g)
		}
		if !hasAgg {
			for i := range sel.OrderBy {
				markElse(sel.OrderBy[i].Expr)
			}
		}
		for i := 1; i < len(tables); i++ {
			for _, f := range stageFilters[i] {
				markElse(f)
			}
			// A PBSM fast-refine conjunct was stripped from the stage
			// filters but its outer geometry is still read by the probe;
			// it must not be classified ephemeral.
			if paths[i].kind == accessPBSM && paths[i].pbsm.refineFC != nil {
				markElse(paths[i].pbsm.refineFC)
			}
		}
		var eph []bool
		for i := 0; i < tables[0].hi; i++ {
			if need[i] && !needElse[i] && scope.Column(i).Type == storage.TypeGeom {
				if eph == nil {
					eph = make([]bool, tables[0].hi)
				}
				eph[i] = true
			}
		}
		paths[0].ephemeral = eph
	}

	// Pipeline: scan stage 0, then for each join stage either index
	// probe, hash probe, partitioned sweep or nested loop, applying
	// stage filters.
	hashBuilt := make([]map[string][][]storage.Value, len(tables))
	pbsmBuilt := make([]*pbsmState, len(tables))
	var produce func(stage int, prefix []storage.Value, emit emitFn) (bool, error)
	// stageEmit wraps a downstream emit with this stage's residual
	// filters and the chain into the next pipeline stage.
	stageEmit := func(stage int, emit emitFn) emitFn {
		// Specialized filters carry per-invocation state (the prepared
		// outer geometry), so they are rebuilt here — once per outer
		// row — while unmarked stages share the zero-cost plain path.
		var special []filterFn
		if specs := stagePrep[stage]; len(specs) > 0 {
			special = make([]filterFn, len(stageFilters[stage]))
			for i := range specs {
				special[specs[i].idx] = specs[i].specialize(r)
			}
		}
		return func(row []storage.Value) (bool, error) {
			for fi, f := range stageFilters[stage] {
				var v storage.Value
				var err error
				if special != nil && special[fi] != nil {
					v, err = special[fi](row)
				} else {
					v, err = Eval(f, row, r.reg)
				}
				if err != nil {
					return false, err
				}
				if v.IsNull() || !truthy(v) {
					return true, nil
				}
			}
			if stage == len(tables)-1 {
				return emit(row)
			}
			return produce(stage+1, row, emit)
		}
	}
	produce = func(stage int, prefix []storage.Value, emit emitFn) (bool, error) {
		bt := tables[stage]
		emitRow := stageEmit(stage, emit)
		if paths[stage].kind == accessHashJoin {
			return r.scanHashJoin(bt.tbl, paths[stage], prefix, scope.Len(), bt.lo,
				&hashBuilt[stage], emitRow)
		}
		if paths[stage].kind == accessPBSM {
			return r.scanPBSM(bt.tbl, paths[stage], prefix, scope.Len(), bt.lo,
				&pbsmBuilt[stage], emitRow)
		}
		return r.scanTable(bt.tbl, paths[stage], prefix, scope.Len(), bt.lo, emitRow)
	}

	// Batched stage 0: the scan feeds column batches through the batch
	// filter cascade instead of stage-0's stageEmit; survivors re-enter
	// the unchanged pipeline at the next stage (or the sink directly).
	// Join stages and the row-path fallback go through rowProduce.
	var bplan *batchPlan
	var batchNext nextFn
	var batchPlanFn func() *batchPlan
	if batchOK {
		// Lazy so point probes that fall back (or match nothing) never
		// pay for filter classification; within one statement the plan
		// is built at most once.
		batchPlanFn = func() *batchPlan {
			if bplan == nil {
				bplan = r.newBatchPlan(stageFilters[0], scope.Len(), paths[0].ephemeral)
			}
			return bplan
		}
		batchNext = func(row []storage.Value, emit emitFn) (bool, error) {
			if len(tables) == 1 {
				return emit(row)
			}
			return produce(1, row, emit)
		}
		rowProduce := produce
		produce = func(stage int, prefix []storage.Value, emit emitFn) (bool, error) {
			if stage != 0 {
				return rowProduce(stage, prefix, emit)
			}
			cont, err := r.runBatchStage0(bt0, paths[0], batchPlanFn, batchNext, emit)
			if errors.Is(err, errBatchFallback) {
				return rowProduce(0, prefix, emit)
			}
			return cont, err
		}
	}

	// Intra-query parallelism: when the plan qualifies, stage 0 fans
	// out across a worker pool (join stages run inside each worker) and
	// shard results merge deterministically in shard order.
	workers := r.parallelWorkers(sel, tables[0].tbl, paths[0].kind, hasAgg, knn)

	// Sinks: aggregation, ordering, limit, projection.
	res := &Result{}
	labels := make([]string, len(tables))
	for i := range tables {
		labels[i] = paths[i].kind.String()
		if i > 0 {
			// Join stages surface their strategy, fastpath-label style.
			switch paths[i].kind {
			case accessPBSM:
				labels[i] = fmt.Sprintf("pbsm(cells=%dx%d)", paths[i].pbsm.gx, paths[i].pbsm.gy)
			case accessSpatialWindow:
				labels[i] = fmt.Sprintf("inl(index=%s)", paths[i].idxCol)
			case accessHashJoin:
				labels[i] = "hash"
			}
		}
		if i == 0 && workers > 1 {
			labels[i] = fmt.Sprintf("parallel %s (%d workers)", labels[i], workers)
		}
	}
	for i, bt := range tables {
		res.Access = append(res.Access, bt.binding+":"+labels[i])
	}
	if explainOnly {
		res.Columns = []string{"table", "access", "rows"}
		for i, bt := range tables {
			res.Rows = append(res.Rows, []storage.Value{
				storage.NewText(bt.binding),
				storage.NewText(labels[i]),
				storage.NewInt(int64(bt.tbl.RowCount())),
			})
		}
		return res, nil
	}
	if len(tables) > 1 {
		switch paths[1].kind {
		case accessPBSM:
			r.joinPBSM.Add(1)
		case accessSpatialWindow:
			r.joinINL.Add(1)
		}
	}

	// Build the per-shard stage-0 runner for parallel plans. Hash-join
	// and PBSM build sides are materialized up front: the lazy build
	// inside the scan would race once workers share it.
	var runShard shardFn
	if workers > 1 {
		for i := range tables {
			if paths[i].kind == accessHashJoin {
				built, err := r.buildHashTable(tables[i].tbl, paths[i])
				if err != nil {
					return nil, err
				}
				hashBuilt[i] = built
			}
			if paths[i].kind == accessPBSM {
				built, err := r.acquirePBSM(paths[i].pbsm, paths[i].need)
				if err != nil {
					return nil, err
				}
				pbsmBuilt[i] = built
			}
		}
		var err error
		if batchOK {
			runShard, err = r.makeBatchShardRunner(bt0, paths[0], batchPlanFn, workers, batchNext)
			if errors.Is(err, errBatchFallback) {
				runShard, err = r.makeShardRunner(tables[0].tbl, paths[0], scope.Len(), tables[0].lo,
					workers, func(emit emitFn) emitFn { return stageEmit(0, emit) })
			}
		} else {
			runShard, err = r.makeShardRunner(tables[0].tbl, paths[0], scope.Len(), tables[0].lo,
				workers, func(emit emitFn) emitFn { return stageEmit(0, emit) })
		}
		if err != nil {
			return nil, err
		}
	}

	// Output column names.
	outNames := func() []string {
		var names []string
		for _, se := range sel.Exprs {
			switch {
			case se.Star:
				for i := 0; i < scope.Len(); i++ {
					names = append(names, scope.Column(i).Name)
				}
			case se.Alias != "":
				names = append(names, se.Alias)
			default:
				names = append(names, strings.ToLower(se.Expr.String()))
			}
		}
		return names
	}
	res.Columns = outNames()

	project := func(row []storage.Value) ([]storage.Value, error) {
		var out []storage.Value
		for _, se := range sel.Exprs {
			if se.Star {
				out = append(out, row...)
				continue
			}
			v, err := Eval(se.Expr, row, r.reg)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}

	// For non-aggregate parallel plans the shards are gathered up front
	// (these sinks materialize anyway) and replayed in shard order, so
	// downstream logic is identical to the serial path.
	prod := produce
	if workers > 1 && !hasAgg {
		merged, err := gatherShards(workers, runShard)
		if err != nil {
			return nil, err
		}
		prod = func(_ int, _ []storage.Value, emit emitFn) (bool, error) {
			for _, row := range merged {
				cont, err := emit(row)
				if err != nil || !cont {
					return cont, err
				}
			}
			return true, nil
		}
	}

	switch {
	case hasAgg:
		var rows [][]storage.Value
		var err error
		if workers > 1 {
			rows, err = r.runAggregateParallel(sel, scope, workers, runShard)
		} else {
			rows, err = r.runAggregate(sel, scope, produce)
		}
		if err != nil {
			return nil, err
		}
		if len(sel.OrderBy) > 0 {
			if err := sortAggregateRows(sel, res.Columns, rows); err != nil {
				return nil, err
			}
		}
		if sel.Offset > 0 || sel.Limit >= 0 {
			start := sel.Offset
			if start > len(rows) {
				start = len(rows)
			}
			end := len(rows)
			if sel.Limit >= 0 && start+sel.Limit < end {
				end = start + sel.Limit
			}
			rows = rows[start:end]
		}
		res.Rows = rows
	case knn:
		// The kNN scan already orders and limits.
		limit := sel.Limit
		offset := sel.Offset
		skipped := 0
		_, err := produce(0, nil, func(row []storage.Value) (bool, error) {
			if limit >= 0 && len(res.Rows) >= limit {
				return false, nil
			}
			if skipped < offset {
				skipped++
				return true, nil
			}
			out, err := project(row)
			if err != nil {
				return false, err
			}
			res.Rows = append(res.Rows, out)
			return limit < 0 || len(res.Rows) < limit, nil
		})
		if err != nil {
			return nil, err
		}
	case len(sel.OrderBy) > 0:
		// Materialize with sort keys, sort, then project.
		type keyedRow struct {
			row  []storage.Value
			keys []storage.Value
		}
		var all []keyedRow
		_, err := prod(0, nil, func(row []storage.Value) (bool, error) {
			kr := keyedRow{row: append([]storage.Value(nil), row...)}
			for _, ok := range sel.OrderBy {
				v, err := Eval(ok.Expr, row, r.reg)
				if err != nil {
					return false, err
				}
				kr.keys = append(kr.keys, v)
			}
			all = append(all, kr)
			return true, nil
		})
		if err != nil {
			return nil, err
		}
		sort.SliceStable(all, func(i, j int) bool {
			for k := range sel.OrderBy {
				c, _ := storage.Compare(all[i].keys[k], all[j].keys[k])
				if c == 0 {
					continue
				}
				if sel.OrderBy[k].Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		start := sel.Offset
		if start > len(all) {
			start = len(all)
		}
		end := len(all)
		if sel.Limit >= 0 && start+sel.Limit < end {
			end = start + sel.Limit
		}
		for _, kr := range all[start:end] {
			out, err := project(kr.row)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, out)
		}
	default:
		limit := sel.Limit
		offset := sel.Offset
		skipped := 0
		_, err := prod(0, nil, func(row []storage.Value) (bool, error) {
			if limit >= 0 && len(res.Rows) >= limit {
				return false, nil
			}
			if skipped < offset {
				skipped++
				return true, nil
			}
			out, err := project(row)
			if err != nil {
				return false, err
			}
			res.Rows = append(res.Rows, out)
			return limit < 0 || len(res.Rows) < limit, nil
		})
		if err != nil {
			return nil, err
		}
	}
	if res.Rows == nil {
		res.Rows = [][]storage.Value{}
	}
	return res, nil
}

// sortAggregateRows orders grouped output rows. After aggregation,
// ORDER BY keys must name output columns: by alias or column name, by
// 1-based ordinal, or by textually matching a select expression.
func sortAggregateRows(sel *Select, outCols []string, rows [][]storage.Value) error {
	keyIdx := make([]int, len(sel.OrderBy))
	for i, ok := range sel.OrderBy {
		idx := -1
		switch t := ok.Expr.(type) {
		case *Literal:
			if t.Value.Type == storage.TypeInt && t.Value.Int >= 1 && int(t.Value.Int) <= len(outCols) {
				idx = int(t.Value.Int) - 1
			}
		case *ColumnRef:
			for j, name := range outCols {
				if name == strings.ToLower(t.Column) {
					idx = j
					break
				}
			}
		}
		if idx < 0 {
			want := strings.ToLower(ok.Expr.String())
			for j, name := range outCols {
				if name == want {
					idx = j
					break
				}
			}
			// Fall back to matching the un-aliased select expressions.
			for j, se := range sel.Exprs {
				if !se.Star && se.Expr != nil && strings.ToLower(se.Expr.String()) == want {
					idx = j
					break
				}
			}
		}
		if idx < 0 {
			return fmt.Errorf("sql: ORDER BY %s must name an output column when grouping", ok.Expr)
		}
		keyIdx[i] = idx
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for k, idx := range keyIdx {
			c, _ := storage.Compare(rows[a][idx], rows[b][idx])
			if c == 0 {
				continue
			}
			if sel.OrderBy[k].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return nil
}

// bindOrderByEarly binds ORDER BY expressions for the non-aggregate path
// so that kNN detection can inspect resolved column offsets.
func bindOrderByEarly(sel *Select, scope *Scope, reg *Registry) error {
	for i := range sel.OrderBy {
		if err := Bind(sel.OrderBy[i].Expr, scope, reg, false); err != nil {
			return err
		}
	}
	return nil
}

// scanTable drives one table's access path, emitting full-width rows
// (prefix + this table's columns + NULL padding to width).
func (r *Runner) scanTable(tbl Table, path accessPath, prefix []storage.Value,
	width, lo int, emit emitFn) (bool, error) {

	pad := func(row []storage.Value) []storage.Value {
		full := make([]storage.Value, width)
		copy(full, prefix)
		copy(full[lo:], row)
		return full
	}

	switch path.kind {
	case accessFullScan:
		proj, skip, err := path.scanProjection(prefix, r.reg)
		if err != nil {
			return false, err
		}
		if skip {
			return true, nil
		}
		cont := true
		var emitErr error
		err = tbl.ScanProject(0, 1, proj, func(_ RowID, row []storage.Value) bool {
			c, err := emit(pad(row))
			if err != nil {
				emitErr = err
				return false
			}
			cont = c
			return c
		})
		if emitErr != nil {
			return false, emitErr
		}
		return cont, err

	case accessSpatialWindow:
		window, err := path.evalWindow(prefix, r.reg)
		if err != nil {
			return false, err
		}
		if window.IsEmpty() {
			return true, nil
		}
		cont := true
		var innerErr error
		path.spatial.Search(window, func(id RowID) bool {
			row, err := tbl.FetchProject(id, path.need)
			if err != nil {
				innerErr = err
				return false
			}
			c, err := emit(pad(row))
			if err != nil {
				innerErr = err
				return false
			}
			cont = c
			return c
		})
		return cont, innerErr

	case accessAttrSeek:
		key, ok, err := r.buildAttrKeyPrefix(path, prefix)
		if err != nil {
			return false, err
		}
		if !ok {
			return true, nil
		}
		cont := true
		var innerErr error
		path.attr.Seek(key, func(id RowID) bool {
			row, err := tbl.FetchProject(id, path.need)
			if err != nil {
				innerErr = err
				return false
			}
			c, err := emit(pad(row))
			if err != nil {
				innerErr = err
				return false
			}
			cont = c
			return c
		})
		return cont, innerErr

	case accessAttrRange:
		keyPrefix, ok, err := r.buildAttrKeyPrefix(path, prefix)
		if err != nil {
			return false, err
		}
		if !ok {
			return true, nil
		}
		loKey := keyPrefix
		if path.rangeLo != nil {
			v, err := Eval(path.rangeLo, prefix, r.reg)
			if err != nil {
				return false, err
			}
			if k, ok := appendKeyComponent(append([]byte(nil), keyPrefix...), v, path.rangeType); ok {
				loKey = k
			}
		}
		var hiKey []byte
		hiInc := false
		if path.rangeHi != nil && path.rangeLast {
			v, err := Eval(path.rangeHi, prefix, r.reg)
			if err != nil {
				return false, err
			}
			if k, ok := appendKeyComponent(append([]byte(nil), keyPrefix...), v, path.rangeType); ok {
				hiKey = k
				hiInc = true
			}
		}
		if hiKey == nil {
			hiKey = btree.PrefixSuccessor(keyPrefix)
		}
		if len(loKey) == 0 {
			loKey = nil
		}
		cont := true
		var innerErr error
		path.attr.Range(loKey, hiKey, true, hiInc, func(id RowID) bool {
			row, err := tbl.FetchProject(id, path.need)
			if err != nil {
				innerErr = err
				return false
			}
			c, err := emit(pad(row))
			if err != nil {
				innerErr = err
				return false
			}
			cont = c
			return c
		})
		return cont, innerErr

	case accessKNN:
		return r.scanKNN(tbl, path, prefix, width, lo, emit)
	}
	return false, fmt.Errorf("sql: unknown access path")
}

// hashJoinKey builds a bucket key that collides for numerically equal
// values; the original equality conjunct remains in the stage's residual
// filter, so over-wide buckets are re-checked exactly.
func hashJoinKey(v storage.Value) (string, bool) {
	if v.IsNull() {
		return "", false // SQL equality never matches NULL
	}
	if f, ok := v.AsFloat(); ok {
		var b [9]byte
		b[0] = 'n'
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			b[1+i] = byte(bits >> (8 * i))
		}
		return string(b[:]), true
	}
	return string(storage.EncodeTuple([]storage.Value{v})), true
}

// buildHashTable materializes a hash join's build side, bucketed by the
// join key of the build column.
func (r *Runner) buildHashTable(tbl Table, path accessPath) (map[string][][]storage.Value, error) {
	table := make(map[string][][]storage.Value)
	err := tbl.ScanProject(0, 1, Projection{Need: path.need, MBRCol: -1}, func(_ RowID, row []storage.Value) bool {
		if key, ok := hashJoinKey(row[path.hashCol]); ok {
			table[key] = append(table[key], append([]storage.Value(nil), row...))
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return table, nil
}

// scanHashJoin probes the build table (materialized once per query) with
// the outer row's key.
func (r *Runner) scanHashJoin(tbl Table, path accessPath, prefix []storage.Value,
	width, lo int, built *map[string][][]storage.Value, emit emitFn) (bool, error) {

	if *built == nil {
		table, err := r.buildHashTable(tbl, path)
		if err != nil {
			return false, err
		}
		*built = table
	}
	probe, err := Eval(path.hashExpr, prefix, r.reg)
	if err != nil {
		return false, err
	}
	key, ok := hashJoinKey(probe)
	if !ok {
		return true, nil
	}
	for _, row := range (*built)[key] {
		full := make([]storage.Value, width)
		copy(full, prefix)
		copy(full[lo:], row)
		cont, err := emit(full)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// knnCand is a heap element for the kNN re-ranking scan.
type knnCand struct {
	row  []storage.Value
	dist float64
}

type knnHeap []knnCand // max-heap by dist

func (h knnHeap) Len() int           { return len(h) }
func (h knnHeap) Less(i, j int) bool { return h[i].dist > h[j].dist }
func (h knnHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *knnHeap) Push(x any)        { *h = append(*h, x.(knnCand)) }
func (h *knnHeap) Pop() any          { old := *h; n := len(old); c := old[n-1]; *h = old[:n-1]; return c }

// scanKNN performs an exact k-nearest-neighbour scan: candidates arrive
// in increasing envelope distance (a lower bound of true distance), are
// re-ranked by exact distance in a bounded heap, and the stream stops
// once the envelope bound passes the kth exact distance.
func (r *Runner) scanKNN(tbl Table, path accessPath, prefix []storage.Value,
	width, lo int, emit emitFn) (bool, error) {

	pv, err := Eval(path.knnPointExpr, prefix, r.reg)
	if err != nil {
		return false, err
	}
	if pv.IsNull() || pv.Type != storage.TypeGeom {
		return true, nil
	}
	probe := pv.Geom
	centre, ok := geom.Centroid(probe)
	if !ok {
		return true, nil
	}
	k := path.knnK
	if k <= 0 {
		return true, nil
	}
	h := &knnHeap{}
	var innerErr error
	path.spatial.Nearest(centre, func(id RowID, envDist float64) bool {
		if h.Len() == k && envDist > (*h)[0].dist {
			return false // no closer candidate can appear
		}
		row, err := tbl.FetchProject(id, path.need)
		if err != nil {
			innerErr = err
			return false
		}
		full := make([]storage.Value, width)
		copy(full, prefix)
		copy(full[lo:], row)
		gv := full[path.knnDistCol]
		if gv.IsNull() || gv.Type != storage.TypeGeom {
			return true
		}
		d := geom.Distance(gv.Geom, probe)
		if h.Len() < k {
			heap.Push(h, knnCand{row: full, dist: d})
		} else if d < (*h)[0].dist {
			(*h)[0] = knnCand{row: full, dist: d}
			heap.Fix(h, 0)
		}
		return true
	})
	if innerErr != nil {
		return false, innerErr
	}
	// Emit in increasing distance order.
	cands := make([]knnCand, h.Len())
	for i := len(cands) - 1; i >= 0; i-- {
		cands[i] = heap.Pop(h).(knnCand)
	}
	for _, c := range cands {
		cont, err := emit(c.row)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// buildAttrKeyPrefix evaluates an access path's equality probes into a
// composite key prefix. ok is false when any probe is NULL or cannot be
// represented in the column's key encoding (such probes can never match).
func (r *Runner) buildAttrKeyPrefix(path accessPath, row []storage.Value) ([]byte, bool, error) {
	var key []byte
	for i, e := range path.eqExprs {
		v, err := Eval(e, row, r.reg)
		if err != nil {
			return nil, false, err
		}
		k, ok := appendKeyComponent(key, v, path.eqTypes[i])
		if !ok {
			return nil, false, nil
		}
		key = k
	}
	return key, true, nil
}

// appendKeyComponent appends one probe value in the index key encoding
// of the column type (matching the engine's index maintenance encoding).
func appendKeyComponent(dst []byte, v storage.Value, colType storage.ValueType) ([]byte, bool) {
	if v.IsNull() {
		return nil, false
	}
	switch colType {
	case storage.TypeInt, storage.TypeBool:
		switch v.Type {
		case storage.TypeInt, storage.TypeBool:
			return btree.AppendInt(dst, v.Int), true
		case storage.TypeFloat:
			if v.Float == float64(int64(v.Float)) {
				return btree.AppendInt(dst, int64(v.Float)), true
			}
		}
	case storage.TypeFloat:
		if f, ok := v.AsFloat(); ok {
			return btree.AppendFloat(dst, f), true
		}
	case storage.TypeText:
		if v.Type == storage.TypeText {
			return btree.AppendText(dst, v.Text), true
		}
	}
	return nil, false
}

// --- aggregation ---------------------------------------------------------

type aggState struct {
	count   int64
	sum     *big.Float // exact SUM/AVG accumulator, lazily allocated
	sumBad  float64    // non-finite inputs, kept outside the exact sum
	hasBad  bool
	sumInt  int64
	intOnly bool
	min     storage.Value
	max     storage.Value
	seen    bool
	geoms   []geom.Geometry // ST_UNION accumulator
	extent  geom.Rect       // ST_EXTENT accumulator
}

// sumPrec makes big.Float addition of float64 terms exact: the full
// double exponent range (~2098 bits) plus headroom for carries, so the
// sum is independent of accumulation order and serial and parallel
// plans produce bit-identical SUM/AVG results.
const sumPrec = 2304

// addSum folds one finite or non-finite term into the accumulator.
func (st *aggState) addSum(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		st.sumBad += f
		st.hasBad = true
		return
	}
	if st.sum == nil {
		st.sum = new(big.Float).SetPrec(sumPrec)
	}
	st.sum.Add(st.sum, new(big.Float).SetPrec(sumPrec).SetFloat64(f))
}

// sumFloat rounds the exact accumulator to float64.
func (st *aggState) sumFloat() float64 {
	var f float64
	if st.sum != nil {
		f, _ = st.sum.Float64()
	}
	if st.hasBad {
		f += st.sumBad
	}
	return f
}

// collectAggregates gathers the aggregate calls of the select list.
func collectAggregates(sel *Select) ([]*FuncCall, error) {
	var aggs []*FuncCall
	for _, se := range sel.Exprs {
		if se.Star {
			return nil, fmt.Errorf("sql: SELECT * cannot be combined with aggregates")
		}
		walkExpr(se.Expr, func(e Expr) {
			if fc, ok := e.(*FuncCall); ok && IsAggregateCall(fc) {
				aggs = append(aggs, fc)
			}
		})
	}
	return aggs, nil
}

// aggGroup holds one group's representative row and aggregate states.
type aggGroup struct {
	firstRow []storage.Value
	states   []aggState
}

// aggregator folds rows into grouped aggregate states. Each worker of a
// parallel plan owns one; partials merge in shard order, which keeps
// group order and tie-breaks identical to a serial run.
type aggregator struct {
	sel    *Select
	reg    *Registry
	aggs   []*FuncCall
	groups map[string]*aggGroup
	order  []string // group keys in first-seen order
}

func newAggregator(sel *Select, reg *Registry, aggs []*FuncCall) *aggregator {
	return &aggregator{sel: sel, reg: reg, aggs: aggs, groups: make(map[string]*aggGroup)}
}

// add is the aggregation sink (an emitFn).
func (a *aggregator) add(row []storage.Value) (bool, error) {
	var keyVals []storage.Value
	for _, g := range a.sel.GroupBy {
		v, err := Eval(g, row, a.reg)
		if err != nil {
			return false, err
		}
		keyVals = append(keyVals, v)
	}
	key := string(storage.EncodeTuple(keyVals))
	grp, ok := a.groups[key]
	if !ok {
		grp = &aggGroup{
			firstRow: append([]storage.Value(nil), row...),
			states:   make([]aggState, len(a.aggs)),
		}
		for i := range grp.states {
			grp.states[i].intOnly = true
		}
		a.groups[key] = grp
		a.order = append(a.order, key)
	}
	for i, fc := range a.aggs {
		if err := accumulate(&grp.states[i], fc, row, a.reg); err != nil {
			return false, err
		}
	}
	return true, nil
}

// merge folds src (a later shard) into a. Groups unseen by a keep their
// src state; shared groups merge state-wise with a (the earlier shard)
// winning ties, matching serial first-seen semantics.
func (a *aggregator) merge(src *aggregator) {
	for _, key := range src.order {
		sg := src.groups[key]
		dg, ok := a.groups[key]
		if !ok {
			a.groups[key] = sg
			a.order = append(a.order, key)
			continue
		}
		for i := range dg.states {
			mergeState(&dg.states[i], &sg.states[i])
		}
	}
}

// mergeState folds a later shard's partial state into dst.
func mergeState(dst, src *aggState) {
	dst.count += src.count
	if src.sum != nil {
		if dst.sum == nil {
			dst.sum = src.sum
		} else {
			dst.sum.Add(dst.sum, src.sum)
		}
	}
	if src.hasBad {
		dst.sumBad += src.sumBad
		dst.hasBad = true
	}
	dst.sumInt += src.sumInt
	dst.intOnly = dst.intOnly && src.intOnly
	if src.seen {
		if !dst.seen {
			dst.min = src.min
			dst.max = src.max
			dst.extent = src.extent
		} else {
			if c, _ := storage.Compare(src.min, dst.min); c < 0 {
				dst.min = src.min
			}
			if c, _ := storage.Compare(src.max, dst.max); c > 0 {
				dst.max = src.max
			}
			dst.extent = dst.extent.Union(src.extent)
		}
	}
	dst.seen = dst.seen || src.seen
	dst.geoms = append(dst.geoms, src.geoms...)
}

// rows finalizes every group (in first-seen order) into output rows.
func (a *aggregator) rows(scopeLen int) ([][]storage.Value, error) {
	// A global aggregate over zero rows still yields one output row.
	if len(a.sel.GroupBy) == 0 && len(a.groups) == 0 {
		a.groups[""] = &aggGroup{firstRow: make([]storage.Value, scopeLen), states: make([]aggState, len(a.aggs))}
		a.order = append(a.order, "")
	}
	var out [][]storage.Value
	for _, key := range a.order {
		grp := a.groups[key]
		aggVals := make(map[*FuncCall]storage.Value, len(a.aggs))
		for i, fc := range a.aggs {
			aggVals[fc] = finalize(&grp.states[i], fc)
		}
		var row []storage.Value
		for _, se := range a.sel.Exprs {
			v, err := evalWithAggs(se.Expr, grp.firstRow, a.reg, aggVals)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		out = append(out, row)
	}
	return out, nil
}

func (r *Runner) runAggregate(sel *Select, scope *Scope,
	produce func(stage int, prefix []storage.Value, emit emitFn) (bool, error)) ([][]storage.Value, error) {

	aggs, err := collectAggregates(sel)
	if err != nil {
		return nil, err
	}
	agg := newAggregator(sel, r.reg, aggs)
	if _, err := produce(0, nil, agg.add); err != nil {
		return nil, err
	}
	return agg.rows(scope.Len())
}

func accumulate(st *aggState, fc *FuncCall, row []storage.Value, reg *Registry) error {
	if fc.Star { // COUNT(*)
		st.count++
		return nil
	}
	v, err := Eval(fc.Args[0], row, reg)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	st.count++
	switch fc.Name {
	case "ST_UNION":
		if v.Type != storage.TypeGeom {
			return fmt.Errorf("sql: ST_UNION over %s", v.Type)
		}
		st.geoms = append(st.geoms, v.Geom)
	case "ST_EXTENT":
		if v.Type != storage.TypeGeom {
			return fmt.Errorf("sql: ST_EXTENT over %s", v.Type)
		}
		if !st.seen {
			st.extent = geom.EmptyRect()
		}
		st.extent = st.extent.Union(v.Geom.Envelope())
	case "SUM", "AVG", PartialSumName:
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("sql: %s over %s", fc.Name, v.Type)
		}
		st.addSum(f)
		if v.Type == storage.TypeInt {
			st.sumInt += v.Int
		} else {
			st.intOnly = false
		}
	case "MIN":
		if !st.seen {
			st.min = v
		} else if c, _ := storage.Compare(v, st.min); c < 0 {
			st.min = v
		}
	case "MAX":
		if !st.seen {
			st.max = v
		} else if c, _ := storage.Compare(v, st.max); c > 0 {
			st.max = v
		}
	}
	st.seen = true
	return nil
}

func finalize(st *aggState, fc *FuncCall) storage.Value {
	switch fc.Name {
	case "COUNT":
		return storage.NewInt(st.count)
	case "SUM":
		if st.count == 0 {
			return storage.Null()
		}
		if st.intOnly {
			return storage.NewInt(st.sumInt)
		}
		return storage.NewFloat(st.sumFloat())
	case "AVG":
		if st.count == 0 {
			return storage.Null()
		}
		return storage.NewFloat(st.sumFloat() / float64(st.count))
	case "MIN":
		if !st.seen {
			return storage.Null()
		}
		return st.min
	case "MAX":
		if !st.seen {
			return storage.Null()
		}
		return st.max
	case "ST_UNION":
		if len(st.geoms) == 0 {
			return storage.Null()
		}
		return storage.NewGeom(overlay.UnionAll(st.geoms))
	case "ST_EXTENT":
		if !st.seen {
			return storage.Null()
		}
		return storage.NewGeom(st.extent.ToPolygon())
	case PartialSumName:
		// Distributed partial aggregation: ship the exact mergeable
		// state instead of a rounded scalar (see PartialSum).
		return storage.NewText(partialFromState(st).Encode())
	}
	return storage.Null()
}

// evalWithAggs evaluates an expression substituting pre-computed
// aggregate results.
func evalWithAggs(e Expr, row []storage.Value, reg *Registry, aggVals map[*FuncCall]storage.Value) (storage.Value, error) {
	if fc, ok := e.(*FuncCall); ok {
		if v, hit := aggVals[fc]; hit {
			return v, nil
		}
	}
	switch t := e.(type) {
	case *BinaryExpr:
		cp := *t
		l, err := evalWithAggs(t.Left, row, reg, aggVals)
		if err != nil {
			return storage.Null(), err
		}
		rr, err := evalWithAggs(t.Right, row, reg, aggVals)
		if err != nil {
			return storage.Null(), err
		}
		cp.Left = &Literal{Value: l}
		cp.Right = &Literal{Value: rr}
		return Eval(&cp, row, reg)
	case *UnaryExpr:
		v, err := evalWithAggs(t.Expr, row, reg, aggVals)
		if err != nil {
			return storage.Null(), err
		}
		return Eval(&UnaryExpr{Op: t.Op, Expr: &Literal{Value: v}}, row, reg)
	case *FuncCall:
		args := make([]storage.Value, len(t.Args))
		for i, a := range t.Args {
			v, err := evalWithAggs(a, row, reg, aggVals)
			if err != nil {
				return storage.Null(), err
			}
			args[i] = v
		}
		return reg.Call(t.Name, args)
	default:
		return Eval(e, row, reg)
	}
}

// --- UPDATE / DELETE ------------------------------------------------------

// matchRows collects the row ids satisfying the WHERE clause of a
// single-table DML statement. The scan decodes only the columns the
// WHERE clause reads.
func (r *Runner) matchRows(tbl Table, binding string, where Expr) ([]RowID, error) {
	scope := NewScope()
	scope.AddTable(binding, tbl.Columns())
	need := make([]bool, scope.Len())
	if where != nil {
		if err := Bind(where, scope, r.reg, false); err != nil {
			return nil, err
		}
		r.installPrepared(where)
		markColumnRefs(need, where)
	}
	var ids []RowID
	var evalErr error
	err := tbl.ScanProject(0, 1, Projection{Need: need, MBRCol: -1}, func(id RowID, row []storage.Value) bool {
		if where != nil {
			v, err := Eval(where, row, r.reg)
			if err != nil {
				evalErr = err
				return false
			}
			if v.IsNull() || !truthy(v) {
				return true
			}
		}
		ids = append(ids, id)
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return ids, err
}

func (r *Runner) execUpdate(upd *Update) (*Result, error) {
	tbl, err := r.table(upd.Table)
	if err != nil {
		return nil, err
	}
	cols := tbl.Columns()
	scope := NewScope()
	scope.AddTable(upd.Table, cols)
	type setOp struct {
		idx int
		e   Expr
	}
	var sets []setOp
	for _, a := range upd.Set {
		idx := ColumnIndexByName(cols, a.Column)
		if idx < 0 {
			return nil, fmt.Errorf("sql: unknown column %q in UPDATE", a.Column)
		}
		if err := Bind(a.Expr, scope, r.reg, false); err != nil {
			return nil, err
		}
		sets = append(sets, setOp{idx: idx, e: a.Expr})
	}
	ids, err := r.matchRows(tbl, upd.Table, upd.Where)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		row, err := tbl.Fetch(id)
		if err != nil {
			return nil, err
		}
		newRow := append([]storage.Value(nil), row...)
		for _, s := range sets {
			v, err := Eval(s.e, row, r.reg)
			if err != nil {
				return nil, err
			}
			cv, err := coerce(v, cols[s.idx])
			if err != nil {
				return nil, err
			}
			newRow[s.idx] = cv
		}
		if _, err := tbl.Update(id, newRow); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(ids)}, nil
}

func (r *Runner) execDelete(del *Delete) (*Result, error) {
	tbl, err := r.table(del.Table)
	if err != nil {
		return nil, err
	}
	ids, err := r.matchRows(tbl, del.Table, del.Where)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if err := tbl.Delete(id); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(ids)}, nil
}
