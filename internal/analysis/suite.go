package analysis

// Repo policy: which packages each check scopes to. These lists are
// the machine-readable form of conventions documented in DESIGN.md
// ("Static analysis" inventory row) — change them deliberately, in
// review, not to silence a finding.
var (
	// deterministicPkgs are the packages covered by the checkpoint
	// config hash: bit-identical resume depends on every source of
	// randomness in them being serializable and replayable.
	deterministicPkgs = []string{
		"fillvoid/internal/nn",
		"fillvoid/internal/core",
		"fillvoid/internal/features",
	}

	// goroutinePkgs may use bare `go` statements: parallel implements
	// the sanctioned fan-out primitives, and server owns HTTP listener
	// lifecycle.
	goroutinePkgs = []string{
		"fillvoid/internal/parallel",
		"fillvoid/internal/server",
	}

	// numericPkgs hold floating-point math where ==/!= is a latent
	// reproducibility bug rather than a style issue.
	numericPkgs = []string{
		"fillvoid/internal/mathutil",
		"fillvoid/internal/grid",
		"fillvoid/internal/metrics",
		"fillvoid/internal/kdtree",
		"fillvoid/internal/delaunay",
		"fillvoid/internal/sampling",
		"fillvoid/internal/interp",
		"fillvoid/internal/recon",
		"fillvoid/internal/nn",
		"fillvoid/internal/features",
		"fillvoid/internal/core",
		"fillvoid/internal/ensemble",
		"fillvoid/internal/stream",
		"fillvoid/internal/iso",
		"fillvoid/internal/sim",
		"fillvoid/internal/render",
		"fillvoid/internal/datasets",
	}

	// errDropExclude subtrees skip the errdrop check: the runnable
	// examples are documentation-grade code where full error plumbing
	// would bury the API being demonstrated.
	errDropExclude = []string{
		"fillvoid/examples/",
	}

	// taintPkgs decode external input (HTTP bodies, URL params, wire
	// headers) and must bounds-check every decoded value before it
	// reaches an allocation size.
	taintPkgs = []string{
		"fillvoid/internal/server",
		"fillvoid/internal/cluster",
		"fillvoid/internal/jobs",
		"fillvoid/internal/codec",
	}

	// lockHeldPkgs are the serving-path packages where a mutex held
	// across a blocking operation stalls every request behind one slow
	// peer or fsync.
	lockHeldPkgs = []string{
		"fillvoid/internal/cluster",
		"fillvoid/internal/jobs",
		"fillvoid/internal/server",
	}

	// goroLeakPkgs spawn goroutines that talk over channels; the leak
	// check covers the serving path plus the child-process helper and
	// the smoke-test driver (whose earlier copies leaked scanner
	// goroutines on deadline abandonment).
	goroLeakPkgs = []string{
		"fillvoid/internal/server",
		"fillvoid/internal/cluster",
		"fillvoid/internal/jobs",
		"fillvoid/internal/parallel",
		"fillvoid/internal/serveproc",
		"fillvoid/scripts/",
		"fillvoid/cmd/",
	}

	telemetryPkg = "fillvoid/internal/telemetry"
)

// DefaultSuite returns the full fillvoid-lint suite configured with
// the repo policy above.
func DefaultSuite() *Suite {
	s := &Suite{Analyzers: []*Analyzer{
		Nondeterminism(deterministicPkgs),
		RawGoroutine(goroutinePkgs),
		SpanPair(telemetryPkg),
		CtxFirst(),
		FloatEq(numericPkgs),
		ErrDrop(errDropExclude),
		TaintAlloc(taintPkgs),
		LockHeld(lockHeldPkgs),
		GoroLeak(goroLeakPkgs),
		StaleAllow(),
	}}
	s.registry = s.Names()
	return s
}
