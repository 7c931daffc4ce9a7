package sources_test

import (
	"reflect"
	"strings"
	"testing"

	"resemble/internal/core"
	"resemble/internal/service"
	"resemble/internal/sources"
)

func TestEveryNameBuilds(t *testing.T) {
	for _, name := range sources.Names() {
		src, err := sources.Build(name, sources.Env{Config: core.DefaultConfig()})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if (src == nil) != (name == sources.None) {
			t.Errorf("%s: built %v", name, src)
		}
	}
}

func TestUnknownNameListsValidNames(t *testing.T) {
	_, err := sources.Build("nope", sources.Env{})
	if err == nil {
		t.Fatal("unknown name built a source")
	}
	for _, name := range sources.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
	if _, err := sources.New("resemble"); err == nil {
		t.Error("New built an ensemble controller as a prefetcher")
	}
}

// TestServiceNamesComeFromRegistry: the service accepts only registry
// names, and its breaker set (whose size perfbench reads) is the
// Table II arm list in controller arm order.
func TestServiceNamesComeFromRegistry(t *testing.T) {
	known := map[string]bool{}
	for _, name := range sources.Names() {
		known[name] = true
	}
	for _, name := range service.Controllers() {
		if !known[name] {
			t.Errorf("service controller %q is not a registry name", name)
		}
	}
	if got, want := service.ArmNames(), sources.Arms(); !reflect.DeepEqual(got, want) {
		t.Errorf("service.ArmNames() = %v, want %v", got, want)
	}
	if got, want := sources.Arms(), []string{"bo", "spp", "isb", "domino"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Arms() = %v, want the Table II order %v", got, want)
	}
}
