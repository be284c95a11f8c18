package experiments

import (
	"context"

	"hmem/internal/report"
)

// Named is a labeled experiment. Run honours the requester semantics of the
// runner's building blocks: cancellation stops new simulations from starting
// but never interrupts (or poisons the cache of) one already in flight.
type Named struct {
	ID  string
	Run func(ctx context.Context) (*report.Table, error)
}

// driver is one table or figure driver as a method expression, so the list
// below is built once and All() allocates only its per-runner closures.
type driver struct {
	id  string
	run func(*Runner, context.Context) (*report.Table, error)
}

// staticTable adapts a driver that needs no simulation.
func staticTable(table func(*Runner) *report.Table) func(*Runner, context.Context) (*report.Table, error) {
	return func(r *Runner, _ context.Context) (*report.Table, error) { return table(r), nil }
}

// drivers lists every table and figure driver in paper order.
var drivers = []driver{
	{"table1", staticTable((*Runner).Table1)},
	{"table2", staticTable((*Runner).Table2)},
	{"figure1", (*Runner).Figure1},
	{"figure2", (*Runner).Figure2},
	{"figure4", (*Runner).Figure4},
	{"figure5", (*Runner).Figure5},
	{"figure6", (*Runner).Figure6},
	{"figure7", (*Runner).Figure7},
	{"figure8", (*Runner).Figure8},
	{"figure9", (*Runner).Figure9},
	{"figure10", (*Runner).Figure10},
	{"figure11", (*Runner).Figure11},
	{"figure12", (*Runner).Figure12},
	{"figure13", (*Runner).Figure13},
	{"figure14", (*Runner).Figure14},
	{"figure15", (*Runner).Figure15},
	{"figure16", (*Runner).Figure16},
	{"figure17", (*Runner).Figure17},
	{"table3", (*Runner).Table3},
	{"hwcost", staticTable((*Runner).TableHardwareCost)},
	{"ablation-cc", (*Runner).AblationCC},
	{"extension-annotated-migration", (*Runner).ExtensionAnnotatedMigration},
	{"extension-tiered-endurance", (*Runner).ExtensionTieredEndurance},
}

// All returns every table and figure driver in paper order. Each Run holds
// a trace plan for every one of the runner's workloads for the driver's
// duration (see coalesce.go), so drivers running side by side — the
// experiments CLI, hmemd jobs — generate each workload's trace once
// between them instead of once per simulation. Holding is free for a
// driver whose simulations are all memo hits.
func (r *Runner) All() []Named {
	all := make([]Named, len(drivers))
	for i, d := range drivers {
		run := d.run
		all[i] = Named{ID: d.id, Run: func(ctx context.Context) (*report.Table, error) {
			defer r.holdPlans(r.specs)()
			return run(r, ctx)
		}}
	}
	return all
}

// ByID returns the named experiment, or false when unknown.
func (r *Runner) ByID(id string) (Named, bool) {
	for _, n := range r.All() {
		if n.ID == id {
			return n, true
		}
	}
	return Named{}, false
}
