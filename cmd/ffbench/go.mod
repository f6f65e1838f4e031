module ffmr/cmd/ffbench

go 1.22

require ffmr v0.0.0

replace ffmr => ../..
