// Package factory constructs TM systems by registry name, decoupling the
// harness and applications from the individual runtime packages.
package factory

import (
	"fmt"
	"sort"

	"github.com/stamp-go/stamp/internal/tm"
	"github.com/stamp-go/stamp/internal/tm/htmsim"
	"github.com/stamp-go/stamp/internal/tm/hybrid"
	"github.com/stamp-go/stamp/internal/tm/mv"
	"github.com/stamp-go/stamp/internal/tm/norec"
	"github.com/stamp-go/stamp/internal/tm/tl2"
)

// constructors maps registry names to runtime constructors.
var constructors = map[string]func(tm.Config) (tm.System, error){
	"seq":          func(c tm.Config) (tm.System, error) { return tm.NewSeq(c) },
	"stm-lazy":     func(c tm.Config) (tm.System, error) { return tl2.NewLazy(c) },
	"stm-eager":    func(c tm.Config) (tm.System, error) { return tl2.NewEager(c) },
	"stm-norec":    func(c tm.Config) (tm.System, error) { return norec.New(c) },
	"stm-mv":       func(c tm.Config) (tm.System, error) { return mv.New(c) },
	"htm-lazy":     func(c tm.Config) (tm.System, error) { return htmsim.NewLazy(c) },
	"htm-eager":    func(c tm.Config) (tm.System, error) { return htmsim.NewEager(c) },
	"hybrid-lazy":  func(c tm.Config) (tm.System, error) { return hybrid.NewLazy(c) },
	"hybrid-eager": func(c tm.Config) (tm.System, error) { return hybrid.NewEager(c) },
}

// New constructs the named TM system.
func New(name string, cfg tm.Config) (tm.System, error) {
	ctor, ok := constructors[name]
	if !ok {
		return nil, fmt.Errorf("factory: unknown TM system %q (known: %v)", name, Names())
	}
	return ctor(cfg)
}

// Names returns all registry names, sorted.
func Names() []string {
	names := make([]string, 0, len(constructors))
	for n := range constructors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TMNames returns the six transactional systems of the paper's evaluation,
// in the order Figure 1's legend lists them. It intentionally stays fixed
// at the paper's roster, which Names() extends with stm-norec and stm-mv,
// so the regenerated tables and figures keep the paper's shape; the extra
// runtimes are selected explicitly by name.
func TMNames() []string {
	return []string{"htm-eager", "htm-lazy", "hybrid-eager", "hybrid-lazy", "stm-eager", "stm-lazy"}
}
