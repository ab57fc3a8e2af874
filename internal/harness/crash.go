package harness

// Crash-path artifact flushing, shared by both CLIs' deferred recover blocks
// and SIGQUIT-adjacent paths. Before this helper each CLI carried its own
// copy of the flush sequence (partial trace, convergence table, "partial"
// manifest) and neither wrote the flight-recorder black box; now one
// function salvages everything a dying run has gathered, in dependency
// order, never failing the exit path itself: every error is logged and
// swallowed — the original crash is the story, not a second failure on the
// way out.

import (
	"log/slog"
	"os"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
)

// CrashArtifacts names everything FlushCrash may salvage. Zero-value fields
// disable their artifact: nil Rec skips the trace, empty TraceOut skips it
// too, empty LedgerPath skips the manifest, nil Log falls back to
// slog.Default().
type CrashArtifacts struct {
	Rec         *obs.Recorder
	Led         *obs.Ledger
	TraceOut    string           // partial Chrome trace destination ("" = off)
	Convergence bool             // render the convergence table to stderr
	LedgerPath  string           // manifest ledger file ("" = off)
	Graph       report.GraphInfo // graph identity for the manifest
	Options     core.Options     // run options for the manifest
	FlightDir   string           // black-box artifact directory ("" = results)
	Log         *slog.Logger
}

// FlushCrash writes the black-box dump and every partial artifact a crashing
// run has gathered. kind labels the manifest row ("partial" from a panic
// path; callers choosing another label own its meaning). Safe with all-zero
// artifacts: it then only writes the flight dump.
func FlushCrash(kind string, a CrashArtifacts) {
	log := a.Log
	if log == nil {
		log = slog.Default()
	}
	log.Error("crash: flushing partial observability artifacts", "kind", kind)

	// The flight recorder first: it needs no cooperation from the recorder
	// or ledger, so even a crash before they exist leaves a black box.
	if path, err := obs.WriteFlightArtifact(a.FlightDir, kind); err != nil {
		log.Error("crash: flight dump failed", "error", err)
	} else {
		log.Info("crash: wrote flight recorder dump", "path", path)
	}

	if a.TraceOut != "" && a.Rec != nil {
		f, err := os.Create(a.TraceOut)
		if err != nil {
			log.Error("crash: partial trace failed", "error", err)
		} else {
			if err := a.Rec.WriteTrace(f); err != nil {
				log.Error("crash: partial trace failed", "error", err)
			}
			f.Close()
		}
	}

	if a.Convergence && a.Led.NumLevels() > 0 {
		RenderConvergenceTable(os.Stderr, a.Led.Levels(), a.Led.Warnings())
	}

	if a.LedgerPath != "" {
		m := report.NewManifest(kind, a.Graph, a.Options, a.Rec, a.Led)
		if err := report.AppendManifest(a.LedgerPath, m); err != nil {
			log.Error("crash: partial manifest failed", "error", err)
		}
	}
}
