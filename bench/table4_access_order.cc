/**
 * @file
 * Table 4: access and update order of one supernet layer under
 * NASPipe/GPipe/PipeDream on 4 vs 8 GPUs — nF/nB strings exactly as
 * the paper prints them.
 */

#include <algorithm>

#include "bench_util.h"

using namespace naspipe;

namespace {

RunResult
runWith(const SearchSpace &space, const SystemModel &system, int gpus)
{
    RuntimeConfig config;
    config.system = system;
    config.numStages = gpus;
    config.totalSubnets = naspipe::bench::defaultSteps(32);
    config.seed = 7;
    config.accessHistory = true;  // the table renders the history
    return runTraining(space, config);
}

/** Pick the layer with the longest access history on the reference
 * run (a layer "sampled by several subnets", like the paper's
 * randomly chosen one). */
LayerId
probeLayer(const RunResult &reference)
{
    LayerId best{0, 0};
    std::size_t bestLen = 0;
    for (const LayerId &layer :
         reference.store->accessLog().touchedLayers()) {
        std::size_t len =
            reference.store->accessLog().layerHistory(layer).size();
        if (len > bestLen) {
            bestLen = len;
            best = layer;
        }
    }
    return best;
}

} // namespace

int
main()
{
    // A moderately dense space so one layer is sampled by several
    // subnets within the run.
    SearchSpace space("t4", SpaceFamily::Nlp, 16, 4, 5);

    bench::banner("Table 4: access & update order of one layer "
                  "(nF = read by subnet n's forward, nB = written by "
                  "its backward)");

    struct Row {
        const char *label;
        SystemModel system;
    };
    const Row rows[] = {
        {"NASPipe", naspipeSystem()},
        {"GPipe", gpipeSystem()},
        {"PipeDream", pipedreamSystem()},
    };

    RunResult reference = runWith(space, naspipeSystem(), 4);
    LayerId layer = probeLayer(reference);
    std::printf("probed layer: block %u, choice %u\n\n", layer.block,
                layer.choice);

    TextTable table({"System", "4 GPUs", "8 GPUs", "Invariant"});
    for (const Row &row : rows) {
        RunResult r4 = runWith(space, row.system, 4);
        RunResult r8 = runWith(space, row.system, 8);
        std::string o4 = r4.store->accessLog().renderOrder(layer);
        std::string o8 = r8.store->accessLog().renderOrder(layer);
        table.addRow({row.label, o4, o8,
                      o4 == o8 ? "YES" : "no"});
    }
    table.print(std::cout);
    std::printf("\nOnly the CSP system keeps the order invariant "
                "across GPU counts, which is how NASPipe achieves "
                "reproducibility on any cluster (§5.2).\n");
    return 0;
}
