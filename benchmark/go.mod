module infobus/benchmark

go 1.22

require infobus v0.0.0

replace infobus => ../
