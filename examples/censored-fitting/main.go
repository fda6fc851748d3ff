// Censored-fitting: what a short monitoring campaign does to your
// availability model, and how censoring-aware estimation fixes it
// (§5.3 of the paper discusses exactly this right-censoring).
//
// A pool is monitored for just one day; occupancies still running at
// campaign end are recorded as right-censored. The example compares
// naive fits (censored values treated as exact lifetimes) against
// censoring-aware maximum likelihood, with the nonparametric
// Kaplan-Meier curve as referee, and shows the effect on the resulting
// checkpoint interval.
package main

import (
	"fmt"
	"log"

	"github.com/cycleharvest/ckptsched/internal/condor"
	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/stats"
)

func main() {
	machines, err := condor.SyntheticPool(condor.SyntheticPoolConfig{Machines: 30, Seed: 17})
	if err != nil {
		log.Fatal(err)
	}
	pool, err := condor.NewPool(machines, 17)
	if err != nil {
		log.Fatal(err)
	}
	set, err := condor.CollectTraces(pool, condor.MonitorConfig{
		Monitors:        30,
		Duration:        24 * 3600, // one day — short enough to censor the long stretches
		IncludeCensored: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Pool all observations.
	var durations []float64
	var flags []bool
	for _, name := range set.Machines() {
		d, c := set.Traces[name].Observations()
		durations = append(durations, d...)
		flags = append(flags, c...)
	}
	censored := 0
	for _, c := range flags {
		if c {
			censored++
		}
	}
	fmt.Printf("one-day campaign: %d observations, %d right-censored (%.1f%%)\n\n",
		len(durations), censored, 100*float64(censored)/float64(len(durations)))

	// Nonparametric referee.
	km, err := stats.NewKaplanMeier(durations, flags)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Kaplan-Meier:     median %5.0f s, S(1h) = %.3f\n\n", km.Median(), km.Survival(3600))

	// Naive vs censoring-aware Weibull fits, and what they do to the
	// schedule (C = R = 110 s, fresh resource).
	naive, err := fit.Weibull(durations)
	if err != nil {
		log.Fatal(err)
	}
	aware, err := fit.FitCensored(fit.ModelWeibull, durations, flags)
	if err != nil {
		log.Fatal(err)
	}
	costs := markov.Costs{C: 110, R: 110, L: 110}
	for _, c := range []struct {
		name string
		d    dist.Distribution
	}{
		{"naive Weibull", naive},
		{"censoring-aware", aware},
	} {
		m := markov.Model{Avail: c.d, Costs: costs}
		T, _, err := m.Topt(0, markov.OptimizeOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s S(1h) = %.3f   T_opt = %5.0f s\n", c.name, c.d.Survival(3600), T)
	}
	fmt.Println("\nThe naive fit, believing censored stretches ended when the campaign")
	fmt.Println("did, underestimates survival and checkpoints more aggressively than")
	fmt.Println("the machine warrants; the censoring-aware fit tracks Kaplan-Meier.")
}
