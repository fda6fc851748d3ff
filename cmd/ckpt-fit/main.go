// Command ckpt-fit fits the four availability models to a machine's
// trace and reports parameters and goodness of fit.
//
// Usage:
//
//	ckpt-fit -trace traces.csv [-machine name] [-train 25] [-censored]
//
// With -machine it fits one machine's durations; otherwise it fits the
// pooled durations of every machine in the file. -train N restricts
// fitting to the first N observations (0 = all), mirroring the paper's
// training-prefix protocol. -censored switches to the censoring-aware
// estimators (and a Kaplan-Meier summary) for traces that carry
// right-censored records.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/stats"
	"github.com/cycleharvest/ckptsched/internal/trace"
)

func main() {
	path := flag.String("trace", "", "trace CSV file (machine,start_unix,duration_s[,censored])")
	machine := flag.String("machine", "", "machine to fit (default: pool all machines)")
	train := flag.Int("train", 0, "fit only the first N observations (0 = all)")
	censored := flag.Bool("censored", false, "use censoring-aware estimators")
	flag.Parse()

	if err := run(*path, *machine, *train, *censored); err != nil {
		fmt.Fprintln(os.Stderr, "ckpt-fit:", err)
		os.Exit(1)
	}
}

func run(path, machine string, train int, censored bool) error {
	if path == "" {
		return fmt.Errorf("missing -trace")
	}
	set, err := trace.LoadCSV(path)
	if err != nil {
		return err
	}
	var data []float64
	var flags []bool
	if machine != "" {
		tr, ok := set.Traces[machine]
		if !ok {
			return fmt.Errorf("machine %q not in %s (have %v)", machine, path, set.Machines())
		}
		data, flags = tr.Observations()
	} else {
		for _, name := range set.Machines() {
			d, c := set.Traces[name].Observations()
			data = append(data, d...)
			flags = append(flags, c...)
		}
	}
	if train > 0 && train < len(data) {
		data, flags = data[:train], flags[:train]
	}
	if len(data) == 0 {
		return fmt.Errorf("no observations")
	}

	if censored {
		return runCensored(data, flags)
	}
	fits, err := fit.All(data)
	if err != nil {
		return err
	}
	fmt.Printf("fitting %d availability durations\n\n", len(data))
	fmt.Printf("%-12s %-50s %12s %12s %12s %8s\n", "model", "parameters", "logLik", "AIC", "BIC", "KS")
	for _, f := range fits {
		fmt.Printf("%-12s %-50v %12.1f %12.1f %12.1f %8.4f\n",
			f.Model, f.Dist, f.LogLik, f.AIC, f.BIC, f.KS)
	}
	best, err := fit.BestByAIC(fits)
	if err != nil {
		return err
	}
	fmt.Printf("\nbest by AIC: %v\n", best.Model)
	bestKS, err := fit.BestByKS(fits)
	if err != nil {
		return err
	}
	fmt.Printf("best by KS:  %v\n", bestKS.Model)
	return nil
}

func runCensored(data []float64, flags []bool) error {
	nc := 0
	for _, c := range flags {
		if c {
			nc++
		}
	}
	fmt.Printf("fitting %d observations (%d right-censored) with censoring-aware estimators\n\n",
		len(data), nc)
	fmt.Printf("%-12s %-50s %14s\n", "model", "parameters", "censored logLik")
	for _, m := range fit.Models {
		d, err := fit.FitCensored(m, data, flags)
		if err != nil {
			return fmt.Errorf("%v: %w", m, err)
		}
		fmt.Printf("%-12s %-50v %14.1f\n", m, d, fit.CensoredLogLikelihood(d, data, flags))
	}
	km, err := stats.NewKaplanMeier(data, flags)
	if err != nil {
		return err
	}
	fmt.Printf("\nKaplan-Meier: median lifetime %.0f s, S(1h) = %.3f, S(8h) = %.3f\n",
		km.Median(), km.Survival(3600), km.Survival(8*3600))
	return nil
}
