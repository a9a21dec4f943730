module timeunion/benchmark

go 1.22

require timeunion v0.0.0

replace timeunion => ../
