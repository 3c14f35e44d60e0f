/**
 * @file
 * Table 2: NPU specifications, plus the derived quantities our models
 * add (peak FLOPs, die area, static power) so the power-model
 * calibration is visible.
 */

#include "bench/bench_util.h"
#include "energy/power_model.h"

int
main(int argc, char **argv)
{
    using namespace regate;
    bench::initBenchNoGrid(argc, argv);
    bench::banner("Table 2", "NPU specifications (A..E)");

    TablePrinter t({"Spec", "NPU-A", "NPU-B", "NPU-C", "NPU-D",
                    "NPU-E"});
    auto row = [&](const std::string &name, auto getter) {
        std::vector<std::string> cells = {name};
        for (auto gen : arch::allGenerations())
            cells.push_back(getter(arch::npuConfig(gen)));
        t.addRow(cells);
    };

    row("Deployment Year", [](const arch::NpuConfig &c) {
        return c.deploymentYear ? std::to_string(c.deploymentYear)
                                : std::string("N/A");
    });
    row("Technology", [](const arch::NpuConfig &c) {
        return std::string(arch::techParams(c.node).name);
    });
    row("Frequency (MHz)", [](const arch::NpuConfig &c) {
        return TablePrinter::fmt(c.frequencyHz / 1e6, 0);
    });
    row("SA Width", [](const arch::NpuConfig &c) {
        return std::to_string(c.saWidth);
    });
    row("# of SAs/VUs", [](const arch::NpuConfig &c) {
        return std::to_string(c.numSa) + "/" + std::to_string(c.numVu);
    });
    row("SRAM Size (MB)", [](const arch::NpuConfig &c) {
        return std::to_string(c.sramBytes >> 20);
    });
    row("HBM Type",
        [](const arch::NpuConfig &c) { return c.hbmType; });
    row("HBM BW (GB/s)", [](const arch::NpuConfig &c) {
        return TablePrinter::fmt(c.hbmBandwidth / 1e9, 0);
    });
    row("HBM Size (GB)", [](const arch::NpuConfig &c) {
        return std::to_string(c.hbmBytes >> 30);
    });
    row("ICI BW/link (GB/s)", [](const arch::NpuConfig &c) {
        return TablePrinter::fmt(c.iciBandwidthPerLink / 1e9, 0);
    });
    row("ICI Config", [](const arch::NpuConfig &c) {
        return std::to_string(c.iciLinks) + " links, " +
               std::to_string(c.torusDims) + "D torus";
    });
    t.addSeparator();
    row("Peak bf16 TFLOPs*", [](const arch::NpuConfig &c) {
        return TablePrinter::fmt(c.peakFlops() / 1e12, 1);
    });
    row("Die area (mm^2)*", [](const arch::NpuConfig &c) {
        return TablePrinter::fmt(
            energy::AreaModel(c).baseline().total(), 0);
    });
    row("Chip static power (W)*", [](const arch::NpuConfig &c) {
        return TablePrinter::fmt(
            energy::PowerModel(c).totalStaticPower(), 0);
    });
    row("ReGate area overhead*", [](const arch::NpuConfig &c) {
        return TablePrinter::pct(
            energy::AreaModel(c).gatingOverheadFraction(), 2);
    });

    t.print(std::cout);
    std::cout << "(*) derived by this repo's area/power model; the "
                 "paper reports <3.3% area overhead on TPUv4i (§4.4)\n";
    return 0;
}
