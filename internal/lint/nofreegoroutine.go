package lint

import "go/ast"

// frameSyncPkgs names the packages implementing the frame-synchronous
// model, plus the off-path packages that sit next to it. The model has no
// free-running concurrency: a System runs every frame in its caller's
// goroutine, so a `go` statement in these packages is either a bug or an
// audited exception (the campaign worker pool, the serve listener, the
// fleet's scheduler loop and shard workers) that must carry a //lint:allow
// annotation naming its justification.
var frameSyncPkgs = map[string]bool{
	"scram":      true,
	"core":       true,
	"fta":        true,
	"frame":      true,
	"failstop":   true,
	"telemetry":  true,
	"membership": true,
	// campaign is not frame-synchronous, but its worker pool is the one
	// place the simulator deliberately multiplies goroutines; scoping the
	// analyzer over it forces every launch to carry an audited allow.
	"campaign": true,
	// serve (the live telemetry plane) is likewise off-path by design, but
	// it sits right next to the frame loop's publish hook; scoping it keeps
	// its listener launch — and any future one — audited.
	"serve": true,
	// fleet multiplexes many frame-synchronous systems over shard workers;
	// scoping it forces every launch (the scheduler loop, the shard
	// workers) to carry an audited allow.
	"fleet": true,
	// chaos drives whole hosts through crash-restart storms; it must stay
	// synchronous itself (the hosts own all concurrency), so any launch
	// added here needs an audited allow.
	"chaos": true,
}

// NoFreeGoroutine forbids goroutine launches in the frame-synchronous
// packages.
var NoFreeGoroutine = &Analyzer{
	Name: "nofreegoroutine",
	Doc: "Forbid go statements in the frame-synchronous packages (scram, core, " +
		"fta, frame, failstop, telemetry, membership): the model has no free-running concurrency; " +
		"audited launches carry a //lint:allow nofreegoroutine annotation.",
	Run: runNoFreeGoroutine,
}

func runNoFreeGoroutine(pass *Pass) error {
	if !frameSyncPkgs[pass.Pkg.Name()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "go statement in frame-synchronous package %q: the fail-stop frame model has no free-running concurrency", pass.Pkg.Name())
			}
			return true
		})
	}
	return nil
}
