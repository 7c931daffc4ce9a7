// Package sources is the registry of prefetch sources: the one place a
// name becomes a prefetcher or a simulated sim.Source. The resemble
// command, the experiments, the extended taxonomy and the service all
// build through it, so a name means the same source everywhere
// (DESIGN.md §2); each caller passes in only what really differs, as
// the fields of Env.
package sources

import (
	"cmp"
	"fmt"
	"strings"

	"resemble/internal/core"
	"resemble/internal/ensemble/sbp"
	"resemble/internal/prefetch"
	"resemble/internal/prefetch/bo"
	"resemble/internal/prefetch/domino"
	"resemble/internal/prefetch/ghb"
	"resemble/internal/prefetch/isb"
	"resemble/internal/prefetch/spp"
	"resemble/internal/prefetch/stems"
	"resemble/internal/prefetch/stms"
	"resemble/internal/prefetch/stride"
	"resemble/internal/prefetch/vldp"
	"resemble/internal/prefetch/voyager"
	"resemble/internal/sim"
)

// None names the no-prefetch baseline; Build returns a nil source for
// it.
const None = "none"

// SoloDegree is the prefetch degree of an arm simulated on its own, as
// in the paper's single-prefetcher comparisons (Figs 8-10).
const SoloDegree = 2

// arms holds every implemented prefetcher at its default
// configuration, the paper's Table II arms first in controller arm
// order.
var arms = []struct {
	name string
	new  func() prefetch.Prefetcher
}{
	{"bo", func() prefetch.Prefetcher { return bo.New(bo.Config{}) }},
	{"spp", func() prefetch.Prefetcher { return spp.New(spp.Config{}) }},
	{"isb", func() prefetch.Prefetcher { return isb.New(isb.Config{}) }},
	{"domino", func() prefetch.Prefetcher { return domino.New(domino.Config{}) }},
	{"stride", func() prefetch.Prefetcher { return stride.New(stride.Config{}) }},
	{"voyager", func() prefetch.Prefetcher { return voyager.New(voyager.Config{}) }},
	{"vldp", func() prefetch.Prefetcher { return vldp.New(vldp.Config{}) }},
	{"ghb", func() prefetch.Prefetcher { return ghb.New(ghb.Config{}) }},
	{"stms", func() prefetch.Prefetcher { return stms.New(stms.Config{}) }},
	{"stems", func() prefetch.Prefetcher { return stems.New(stems.Config{}) }},
}

// ensembles holds the ensemble controllers, each built over an input
// set. SBP(E) takes no controller configuration.
var ensembles = []struct {
	name string
	new  func(core.Config, []prefetch.Prefetcher) sim.Source
}{
	{"resemble", func(cfg core.Config, in []prefetch.Prefetcher) sim.Source { return core.NewController(cfg, in) }},
	{"resemble-t", func(cfg core.Config, in []prefetch.Prefetcher) sim.Source { return core.NewTabularController(cfg, in) }},
	{"sbp-e", func(_ core.Config, in []prefetch.Prefetcher) sim.Source { return sbp.New(sbp.Config{}, in) }},
}

// Arms returns the paper's Table II arm names (BO, SPP, ISB, Domino)
// in controller arm order.
func Arms() []string { return []string{"bo", "spp", "isb", "domino"} }

// Names returns every name Build accepts: the ensemble controllers,
// every implemented prefetcher, then None.
func Names() []string {
	names := make([]string, 0, len(ensembles)+len(arms)+1)
	for _, e := range ensembles {
		names = append(names, e.name)
	}
	for _, a := range arms {
		names = append(names, a.name)
	}
	return append(names, None)
}

// New builds the named prefetcher at its default configuration.
func New(name string) (prefetch.Prefetcher, error) {
	for _, a := range arms {
		if a.name == name {
			return a.new(), nil
		}
	}
	return nil, fmt.Errorf("unknown prefetcher %q", name)
}

// Set builds the named prefetchers, in order. It panics on an unknown
// name: it is for input sets fixed in code.
func Set(names ...string) []prefetch.Prefetcher {
	pfs, err := each(New, names)
	if err != nil {
		panic(err)
	}
	return pfs
}

// TableII builds the paper's Table II input set: BO, SPP, ISB and
// Domino at their default configurations.
func TableII() []prefetch.Prefetcher { return Set(Arms()...) }

// each builds the named prefetchers through arm.
func each(arm func(string) (prefetch.Prefetcher, error), names []string) ([]prefetch.Prefetcher, error) {
	pfs := make([]prefetch.Prefetcher, len(names))
	for i, name := range names {
		p, err := arm(name)
		if err != nil {
			return nil, err
		}
		pfs[i] = p
	}
	return pfs, nil
}

// Env is what a caller supplies to Build beyond the name.
type Env struct {
	// Config configures the ReSemble controllers (resemble and
	// resemble-t).
	Config core.Config
	// Degree is a solo arm's prefetch degree; zero means SoloDegree.
	Degree int
	// Arm supplies each named arm Build uses: a solo source's and,
	// unless Inputs is set, each of an ensemble's Table II inputs. Nil
	// builds a fresh one with New.
	Arm func(name string) (prefetch.Prefetcher, error)
	// Inputs, when set, supplies an ensemble's whole input set.
	Inputs func() ([]prefetch.Prefetcher, error)
	// Ensemble, when set, supplies the named ensemble controller over
	// inputs in place of build(), which constructs a new one: a service
	// worker hands back the controller it holds, restarted, when it
	// can.
	Ensemble func(name string, inputs []prefetch.Prefetcher, build func() sim.Source) sim.Source
}

// Build turns name into a source: nil for None, a solo arm at
// env.Degree, or an ensemble controller over its inputs.
func Build(name string, env Env) (sim.Source, error) {
	if name == None {
		return nil, nil
	}
	arm := env.Arm
	if arm == nil {
		arm = New
	}
	for _, e := range ensembles {
		if e.name != name {
			continue
		}
		var inputs []prefetch.Prefetcher
		var err error
		if env.Inputs != nil {
			inputs, err = env.Inputs()
		} else {
			inputs, err = each(arm, Arms())
		}
		if err != nil {
			return nil, err
		}
		build := func() sim.Source { return e.new(env.Config, inputs) }
		if env.Ensemble != nil {
			return env.Ensemble(name, inputs, build), nil
		}
		return build(), nil
	}
	for _, a := range arms {
		if a.name != name {
			continue
		}
		p, err := arm(name)
		if err != nil {
			return nil, err
		}
		return sim.FromPrefetcher(p, cmp.Or(env.Degree, SoloDegree)), nil
	}
	return nil, fmt.Errorf("unknown source %q (choose from %s)", name, strings.Join(Names(), ", "))
}
