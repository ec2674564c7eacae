// Package analysis is the repo's independent verification layer: a
// pluggable, pass-based static checker that audits what the SSA
// construction and destruction pipelines did, from first principles.
//
// The passes deliberately re-derive their facts instead of trusting the
// code under test: dominance comes from a naive iterative bitset dataflow
// (not internal/dom's CHK walk), the liveness cross-check replays the
// analysis one variable at a time (not internal/liveness's solver),
// and the coalescing auditor builds its own interference graph (not
// internal/core/interfere.go or internal/ifgraph). The layering is:
//
//	structural        ir.Verify on both snapshots (shape only)
//	StrictSSA         every use dominated by its unique def; φ form
//	LivenessCrossCheck liveness solver vs naive per-variable recompute
//	CoalescingSafety  no congruence class holds two interfering names
//	TranslationValidate pre- vs post-destruction agreement under interp
//
// Concurrency: a Unit is single-goroutine (it caches derived facts
// lazily); the batch driver builds one Unit per job inside the worker.
package analysis

import (
	"fmt"
	"strings"

	"fastcoalesce/internal/ir"
)

// Level selects how much auditing to do.
type Level int

const (
	// None runs nothing.
	None Level = iota
	// Fast runs the static passes: structural verification, StrictSSA,
	// LivenessCrossCheck, and CoalescingSafety.
	Fast
	// Full adds TranslationValidate (interpreter-based equivalence).
	Full
)

// ParseLevel converts a -check flag value to a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "", "none":
		return None, nil
	case "fast":
		return Fast, nil
	case "full":
		return Full, nil
	}
	return None, fmt.Errorf("analysis: unknown check level %q (want none, fast, or full)", s)
}

// String returns the flag spelling of l.
func (l Level) String() string {
	switch l {
	case None:
		return "none"
	case Fast:
		return "fast"
	case Full:
		return "full"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Diag is one structured finding.
type Diag struct {
	Pass     string     // pass that produced the finding
	Func     string     // function name
	Block    ir.BlockID // block the finding anchors to (NoBlock if none)
	Instr    int        // instruction index within Block, -1 if none
	Vars     []ir.VarID // offending variables (SSA-snapshot IDs)
	VarNames []string   // their names, resolved at diagnosis time
	Hazard   string     // "lost-copy", "swap", or "" when not classified
	Msg      string     // human-readable explanation
}

// String renders the diagnostic on one line.
func (d Diag) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s", d.Pass, d.Func)
	if d.Block != ir.NoBlock {
		fmt.Fprintf(&b, " b%d", d.Block)
		if d.Instr >= 0 {
			fmt.Fprintf(&b, ".%d", d.Instr)
		}
	}
	if len(d.VarNames) > 0 {
		fmt.Fprintf(&b, " {%s}", strings.Join(d.VarNames, ", "))
	}
	if d.Hazard != "" {
		fmt.Fprintf(&b, " (%s hazard)", d.Hazard)
	}
	b.WriteString(": ")
	b.WriteString(d.Msg)
	return b.String()
}

// Unit is everything one audit needs: the function as it looked in SSA
// form, the destructed output, and the name mapping connecting them.
type Unit struct {
	// Algo names the pipeline that produced Out ("standard", "new",
	// "briggs", "briggs*"); informational only.
	Algo string

	// SSA is the function immediately before destruction (φ-form,
	// critical edges split). The static passes audit this snapshot.
	SSA *ir.Func

	// Out is the destructed (φ-free) function.
	Out *ir.Func

	// NameMap maps each SSA VarID to the name it carries in Out. Two SSA
	// names were coalesced iff they map to the same output name. nil
	// means the identity map (no coalescing: the Standard pipeline).
	NameMap []ir.VarID

	// Trials is the number of generated workloads TranslationValidate
	// executes (0 selects a default).
	Trials int

	// Lazily derived facts, shared across passes.
	facts facts
}

// Report aggregates one audit's findings.
type Report struct {
	Diags   []Diag
	Skipped []string // "pass: reason" notes for size/fuel gates
}

// Failed reports whether any pass produced a finding.
func (r *Report) Failed() bool { return len(r.Diags) > 0 }

// skip records that a pass (or one of its trials) was not run to completion.
func (r *Report) skip(pass, reason string) {
	r.Skipped = append(r.Skipped, pass+": "+reason)
}

// String renders every diagnostic (and skip note) on its own line.
func (r *Report) String() string {
	var b strings.Builder
	for _, d := range r.Diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	for _, s := range r.Skipped {
		fmt.Fprintf(&b, "[skipped] %s\n", s)
	}
	return b.String()
}

// Pass is one pluggable auditor. Run appends findings for the unit;
// passes may record size-gate skips on the report.
type Pass interface {
	Name() string
	Run(u *Unit, rep *Report)
}

// Passes returns the standard suite for a level, in execution order.
func Passes(level Level) []Pass {
	switch level {
	case Fast:
		return []Pass{strictSSAPass{}, livenessPass{}, coalescingPass{}}
	case Full:
		return []Pass{strictSSAPass{}, livenessPass{}, coalescingPass{}, translatePass{}}
	}
	return nil
}

// RunAll audits the unit at the given level and returns the report. It
// always begins with structural verification of both snapshots; if either
// fails, the static passes are not run (their fact derivation assumes
// well-formed IR).
func RunAll(u *Unit, level Level) *Report {
	rep := &Report{}
	if level == None {
		return rep
	}
	name := "?"
	if u.SSA != nil {
		name = u.SSA.Name
	} else if u.Out != nil {
		name = u.Out.Name
	}
	structuralOK := true
	for _, snap := range []struct {
		f    *ir.Func
		what string
	}{{u.SSA, "SSA snapshot"}, {u.Out, "output"}} {
		if snap.f == nil {
			continue
		}
		if err := snap.f.Verify(); err != nil {
			rep.Diags = append(rep.Diags, Diag{
				Pass:  "structural",
				Func:  name,
				Block: ir.NoBlock,
				Instr: -1,
				Msg:   snap.what + " fails ir.Verify: " + err.Error(),
			})
			structuralOK = false
		}
	}
	if !structuralOK {
		return rep
	}
	for _, p := range Passes(level) {
		p.Run(u, rep)
	}
	return rep
}

// diag is a small constructor keeping the passes terse.
func (u *Unit) diag(pass string, b ir.BlockID, instr int, vars []ir.VarID, hazard, msg string) Diag {
	d := Diag{
		Pass:   pass,
		Func:   u.SSA.Name,
		Block:  b,
		Instr:  instr,
		Vars:   vars,
		Hazard: hazard,
		Msg:    msg,
	}
	for _, v := range vars {
		d.VarNames = append(d.VarNames, u.SSA.VarName(v))
	}
	return d
}
