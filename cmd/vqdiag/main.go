// Command vqdiag classifies session records with a trained model: the
// deployable diagnostic tool of the reproduction.
//
// Usage:
//
//	vqdiag -model model.json -in sessions.csv [-parallel N] [-confusion]
//	       [-strict] [-explain] [-log-format text|json]
//
// -model accepts vqtrain's JSON or the binary snapshot written by
// vqtrain -emit-snapshot (loaded in one sequential read).
//
// The input CSV uses the same format vqlab writes and is streamed row
// by row (it never has to fit in memory); if its class column is
// non-empty the tool also reports accuracy (and, with -confusion, the
// full per-class precision/recall breakdown). The CSV header is
// validated against the model's feature schema before any row is
// classified: sharing no features with the model is a hard error, and
// partially missing features warn (or fail, with -strict). Rows are
// classified through the serving engine with -parallel shards; output
// is identical to the input order for any -parallel. With -explain,
// each prediction is followed by the decision rule that produced it
// ("root cause = X because f=v > t ∧ ..."). Diagnostics go to stderr
// through log/slog; -log-format json emits them as JSON objects.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"vqprobe"
	"vqprobe/internal/buildinfo"
	"vqprobe/internal/ml"
)

// chunkRows bounds memory: rows are classified and printed in chunks of
// this size.
const chunkRows = 512

// options are vqdiag's classification flags.
type options struct {
	model, in                         string
	parallel                          int
	confusion, quiet, strict, explain bool
}

func fatalf(format string, args ...any) {
	slog.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}

func main() {
	var o options
	flag.StringVar(&o.model, "model", "model.json", "trained model: vqtrain JSON or binary snapshot")
	flag.StringVar(&o.in, "in", "", "sessions CSV to diagnose (required)")
	flag.BoolVar(&o.confusion, "confusion", false, "print the full confusion summary")
	flag.BoolVar(&o.quiet, "quiet", false, "suppress per-session lines")
	flag.IntVar(&o.parallel, "parallel", 1, "parallel classification workers (0 = NumCPU)")
	flag.BoolVar(&o.strict, "strict", false, "fail if any model feature is absent from the CSV header")
	flag.BoolVar(&o.explain, "explain", false, "print the decision rule behind each prediction")
	var (
		logFmt  = flag.String("log-format", "text", "diagnostic log format: text or json")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "vqdiag")
		return
	}
	switch *logFmt {
	case "json":
		slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	case "text", "":
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	default:
		fmt.Fprintf(os.Stderr, "vqdiag: unknown -log-format %q (want text or json)\n", *logFmt)
		os.Exit(2)
	}
	if o.in == "" {
		fmt.Fprintln(os.Stderr, "vqdiag: -in is required")
		os.Exit(2)
	}
	if err := diagnose(o, os.Stdout); err != nil {
		fatalf("%v", err)
	}
}

// diagnose classifies every row of o.in through an engine with
// o.parallel shards and writes the per-session lines and the accuracy
// summary to w.
func diagnose(o options, w io.Writer) error {
	cm, err := vqprobe.LoadServingModel(o.model)
	if err != nil {
		return err
	}
	df, err := os.Open(o.in)
	if err != nil {
		return err
	}
	defer df.Close()
	stream, err := ml.NewCSVStream(df)
	if err != nil {
		return fmt.Errorf("%s: %w", o.in, err)
	}
	if err := validateSchema(cm.Schema(), stream.Features(), o.strict); err != nil {
		return err
	}

	eng := vqprobe.NewEngine(cm, vqprobe.EngineConfig{Shards: o.parallel})
	defer eng.Close()

	conf := ml.NewConfusion(nil)
	rows, labeled, failed := 0, 0, 0
	reqs := make([]vqprobe.ServeRequest, 0, chunkRows)
	classes := make([]string, 0, chunkRows)

	flush := func() {
		for i, res := range eng.DiagnoseBatch(reqs) {
			idx := rows - len(reqs) + i
			if res.Err != "" {
				failed++
				if !o.quiet {
					fmt.Fprintf(w, "session %4d: error=%s\n", idx, res.Err)
				}
				continue
			}
			if !o.quiet {
				fmt.Fprintf(w, "session %4d: predicted=%-20s actual=%s\n", idx, res.Class, classes[i])
				if o.explain && res.Rule != "" {
					fmt.Fprintf(w, "              %s\n", res.Rule)
				}
			}
			if classes[i] != "" {
				conf.Add(classes[i], res.Class)
				labeled++
			}
		}
		reqs = reqs[:0]
		classes = classes[:0]
	}

	for {
		fv, class, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("%s: %w", o.in, err)
		}
		reqs = append(reqs, vqprobe.ServeRequest{ID: fmt.Sprint(rows), Features: fv, Explain: o.explain})
		classes = append(classes, class)
		rows++
		if len(reqs) == chunkRows {
			flush()
		}
	}
	flush()

	if rows == 0 {
		return fmt.Errorf("%s has no data rows", o.in)
	}
	if failed == rows {
		return fmt.Errorf("all %d rows failed to classify", rows)
	}
	if labeled > 0 {
		fmt.Fprintf(w, "accuracy: %.1f%% over %d labeled sessions\n", conf.Accuracy()*100, labeled)
		if o.confusion {
			fmt.Fprint(w, conf.String())
		}
	}
	return nil
}

// validateSchema checks the CSV header against the model's feature
// schema before any row is classified: zero overlap means the wrong
// file and is always fatal; a partial mismatch is treated as missing
// values (the paper's reduced-deployment scenarios) unless -strict.
func validateSchema(schema, header []string, strict bool) error {
	have := make(map[string]bool, len(header))
	for _, f := range header {
		have[f] = true
	}
	var missing []string
	for _, f := range schema {
		if !have[f] {
			missing = append(missing, f)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if len(missing) == len(schema) {
		return fmt.Errorf("input shares no features with the model (model expects %d features, e.g. %s); wrong CSV or wrong model?",
			len(schema), exampleList(schema))
	}
	if strict {
		return fmt.Errorf("%d of %d model features absent from input: %s", len(missing), len(schema), exampleList(missing))
	}
	slog.Warn("model features absent from input (treated as missing values)",
		"missing", len(missing), "schema", len(schema), "examples", exampleList(missing))
	return nil
}

// exampleList renders up to four names of a feature list.
func exampleList(names []string) string {
	const max = 4
	s := ""
	for i, n := range names {
		if i == max {
			return s + fmt.Sprintf(", … (%d more)", len(names)-max)
		}
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}
