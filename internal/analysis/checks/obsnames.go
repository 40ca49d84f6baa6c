package checks

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"progressdb/internal/analysis"
)

// Obsnames disciplines the metrics namespace. The obs registry is the
// engine's single pane of glass — dashboards, the chaos suite, and the
// <1%-overhead benchmark all address series by name — so names must be
// greppable literals (no runtime concatenation), snake_case with a
// known subsystem prefix, and unique across the module: the registry
// panics at runtime on a kind collision, and silently aliases two
// call sites that pick the same name for different meanings. This
// analyzer moves both failure modes to lint time, module-wide.
// The analyzer also resolves *references*: any series name marked with
// tsdb.Ref — the dashboard's sparkline list, the profile counter set —
// must be registered somewhere in the module (directly, or as the
// _count/_sum series derived from a registered histogram). Registrations
// are collected per package and references resolved in the End hook,
// so a reference may legally precede its registration in visit order.
var Obsnames = &analysis.Analyzer{
	Name: "obsnames",
	Doc: "obs registry metric names must be literal snake_case strings " +
		"with a known subsystem prefix and no duplicate registrations " +
		"across the module; tsdb.Ref-marked series references must " +
		"resolve to a registration",
	Run: runObsnames,
	End: endObsnames,
}

// knownSubsystems are the approved metric name prefixes (the segment
// before the first underscore). Adding a subsystem is a deliberate,
// reviewed act: extend this list and DESIGN.md §7 together.
var knownSubsystems = map[string]bool{
	"engine":      true, // whole-DB counters (queries, leaks)
	"bufferpool":  true,
	"storage":     true,
	"disk":        true,
	"vclock":      true,
	"exec":        true,
	"segment":     true,
	"server":      true,
	"fleet":       true, // sharded-serving coordinator (merge, fan-out, per-shard gauges)
	"faultinject": true,
	"indicator":   true, // progress-indicator gauges
	"progress":    true, // progress-estimate distributions
}

// registryMethods maps obs.Registry instrument constructors to whether
// they register labeled families.
var registryMethods = map[string]bool{
	"Counter":        false,
	"Gauge":          false,
	"Histogram":      false,
	"LabeledCounter": true,
	"LabeledGauge":   true,
}

var snakeCaseRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)

// obsSeen tracks registrations across the whole run (module-wide).
type obsSeen struct {
	pos     token.Position
	labeled bool
}

const obsStateKey = "obsnames.seen"

// obsRef is one tsdb.Ref call site awaiting module-wide resolution.
type obsRef struct {
	name string
	pos  token.Pos
}

const obsRefsKey = "obsnames.refs"

func runObsnames(pass *analysis.Pass) error {
	seen, _ := pass.State.Get(obsStateKey).(map[string]obsSeen)
	if seen == nil {
		seen = make(map[string]obsSeen)
		pass.State.Set(obsStateKey, seen)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if isTsdbRef(pass, sel) && len(call.Args) == 1 {
				collectRef(pass, call)
				return true
			}
			labeled, isReg := registryMethods[sel.Sel.Name]
			if !isReg || !isObsRegistry(pass, sel.X) || len(call.Args) == 0 {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				pass.Reportf(call.Args[0].Pos(),
					"metric name passed to Registry.%s must be a literal string "+
						"(computed names defeat grep, dashboards, and duplicate detection)",
					sel.Sel.Name)
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			checkMetricName(pass, lit, sel.Sel.Name, name, labeled, seen)
			return true
		})
	}
	return nil
}

// checkMetricName applies the naming and uniqueness rules to one
// registration site.
func checkMetricName(pass *analysis.Pass, lit *ast.BasicLit, method, name string, labeled bool, seen map[string]obsSeen) {
	if !snakeCaseRE.MatchString(name) {
		pass.Reportf(lit.Pos(),
			"metric name %q is not snake_case (want lowercase words joined by underscores, "+
				"e.g. storage_io_retries_total)", name)
		return
	}
	subsystem := name[:strings.IndexByte(name, '_')]
	if !knownSubsystems[subsystem] {
		known := make([]string, 0, len(knownSubsystems))
		for s := range knownSubsystems {
			known = append(known, s)
		}
		sort.Strings(known)
		pass.Reportf(lit.Pos(),
			"metric name %q has unknown subsystem prefix %q (known: %s); "+
				"new subsystems are added in internal/analysis/checks/obsnames.go "+
				"alongside DESIGN.md §7", name, subsystem, strings.Join(known, ", "))
		return
	}
	if prev, dup := seen[name]; dup {
		// Labeled families are registered per label value, so repeated
		// labeled registrations of the same name are the normal idiom;
		// everything else aliases two meanings under one series.
		if labeled && prev.labeled {
			return
		}
		pass.Reportf(lit.Pos(),
			"metric %q is already registered at %s:%d: duplicate names alias two "+
				"meanings under one series (the registry would panic on a kind mismatch "+
				"and silently merge otherwise)", name, prev.pos.Filename, prev.pos.Line)
		return
	}
	seen[name] = obsSeen{pos: pass.Fset.Position(lit.Pos()), labeled: labeled}
}

// collectRef records one tsdb.Ref("...") site for End-time resolution,
// reporting immediately when the argument is not a literal (a computed
// reference can't be resolved at lint time, which defeats the marker's
// whole purpose).
func collectRef(pass *analysis.Pass, call *ast.CallExpr) {
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		pass.Reportf(call.Args[0].Pos(),
			"series name passed to tsdb.Ref must be a literal string "+
				"(Ref exists so the reference can be lint-resolved against registrations)")
		return
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	refs, _ := pass.State.Get(obsRefsKey).([]obsRef)
	pass.State.Set(obsRefsKey, append(refs, obsRef{name: name, pos: lit.Pos()}))
}

// endObsnames resolves every collected tsdb.Ref against the module-wide
// registration set: a reference must name a registered metric (label
// selectors stripped), or the _count/_sum series derived from a
// registered histogram.
func endObsnames(pass *analysis.Pass) error {
	seen, _ := pass.State.Get(obsStateKey).(map[string]obsSeen)
	refs, _ := pass.State.Get(obsRefsKey).([]obsRef)
	for _, r := range refs {
		name := r.name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if _, ok := seen[name]; ok {
			continue
		}
		if base, ok := trimDerived(name); ok {
			if _, ok := seen[base]; ok {
				continue
			}
		}
		pass.Reportf(r.pos,
			"tsdb.Ref(%q) references a metric series nothing in the module registers "+
				"(a dashboard or sampler list naming an unregistered series renders "+
				"forever-empty panels; register the metric or fix the name)", r.name)
	}
	return nil
}

// trimDerived strips the histogram-derived _count/_sum suffix.
func trimDerived(name string) (string, bool) {
	for _, suffix := range []string{"_count", "_sum"} {
		if strings.HasSuffix(name, suffix) {
			return name[:len(name)-len(suffix)], true
		}
	}
	return name, false
}

// isTsdbRef reports whether sel resolves to the Ref function of
// progressdb/internal/obs/tsdb (robust to import aliasing).
func isTsdbRef(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Ref" {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "progressdb/internal/obs/tsdb"
}

// isObsRegistry reports whether expr's static type is
// *progressdb/internal/obs.Registry (or the value form).
func isObsRegistry(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && obj.Pkg() != nil &&
		obj.Pkg().Path() == "progressdb/internal/obs"
}
