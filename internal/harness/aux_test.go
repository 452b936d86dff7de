package harness

import "testing"

// TestAuxRegistrySeparation: auxiliary specs resolve by id and are listed
// separately, but never leak into All() — which is what keeps the default
// `aem bench` output and its goldens byte-stable.
func TestAuxRegistrySeparation(t *testing.T) {
	for _, s := range Aux() {
		if _, ok := ByID(s.ID); !ok {
			t.Errorf("aux spec %s not resolvable by id", s.ID)
		}
		for _, reg := range All() {
			if reg.ID == s.ID {
				t.Errorf("aux spec %s leaked into All()", s.ID)
			}
		}
	}
	specs, warns, err := Select("EXP-L1,EXP-L3")
	if err != nil || len(warns) != 0 || len(specs) != 2 {
		t.Fatalf("Select over aux ids: %d specs, warns %v, err %v", len(specs), warns, err)
	}
	all, _, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	aux := map[string]bool{}
	for _, s := range Aux() {
		aux[s.ID] = true
	}
	for _, s := range all {
		if aux[s.ID] {
			t.Errorf("Select(all) included aux spec %s", s.ID)
		}
	}
}
