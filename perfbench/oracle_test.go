package main

import "testing"

func TestCheckerRejectsPlantedErrors(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

func TestRenameKeepsVariablesNumbersAndKeywords(t *testing.T) {
	got := rename("forall X (!resort(X) | exists T plane(T+7, r0)) & not b1(10)", "k9")
	want := "forall X (!resort_k9(X) | exists T plane_k9(T+7, r0_k9)) & not b1_k9(10)"
	if got != want {
		t.Fatalf("rename = %q, want %q", got, want)
	}
}
