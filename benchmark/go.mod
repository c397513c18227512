module neutronstar/benchmark

go 1.22

require neutronstar v0.0.0

replace neutronstar => ../
