/**
 * @file
 * Numeric executor tests: staged execution equals sequential
 * execution, and the three update semantics behave distinctly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>

#include "common/rng.h"
#include "tensor/kernels/tanh.h"
#include "tensor/loss.h"
#include "train/numeric_executor.h"

namespace naspipe {
namespace {

struct ExecFixture : ::testing::Test {
    ExecFixture() : space(makeTinySpace()), store(space, 7)
    {
        NumericExecutor::Config config;
        config.dataSeed = 99;
        config.batch = 192;  // the family reference: LR scale 1
        exec = std::make_unique<NumericExecutor>(store, config);
    }

    Subnet
    subnet(SubnetId id, std::vector<std::uint16_t> choices = {0, 1, 2,
                                                              0})
    {
        return Subnet(id, std::move(choices));
    }

    SearchSpace space;
    ParameterStore store;
    std::unique_ptr<NumericExecutor> exec;
};

TEST_F(ExecFixture, SequentialTrainingReducesLoss)
{
    // Train the same architecture repeatedly: every subnet gets its
    // own batch, so only the trend must fall.
    std::vector<float> history;
    for (int i = 0; i < 30; i++)
        history.push_back(exec->trainSequential(subnet(i, {0, 1, 2, 0})));
    double early = 0, late = 0;
    for (int i = 0; i < 10; i++) {
        early += history[static_cast<std::size_t>(i)];
        late += history[history.size() - 1 - i];
    }
    EXPECT_LT(late, early);
}

TEST_F(ExecFixture, StagedExecutionBitwiseEqualsSequential)
{
    Subnet sn = subnet(0);
    // Staged: two-block stages, immediate semantics.
    exec->beginSubnet(sn);
    exec->forwardStage(sn, 0, 1, UpdateSemantics::Immediate);
    exec->forwardStage(sn, 2, 3, UpdateSemantics::Immediate);
    float stagedLoss = exec->computeLoss(sn);
    exec->backwardStage(sn, 2, 3, UpdateSemantics::Immediate);
    exec->backwardStage(sn, 0, 1, UpdateSemantics::Immediate);
    exec->finishSubnet(sn);

    // Sequential on a fresh store.
    ParameterStore other(space, 7);
    NumericExecutor::Config config;
    config.dataSeed = 99;
    config.batch = 192;
    NumericExecutor seq(other, config);
    float seqLoss = seq.trainSequential(subnet(0));

    EXPECT_EQ(stagedLoss, seqLoss);
    EXPECT_EQ(store.supernetHash(), other.supernetHash());
}

TEST_F(ExecFixture, NonContiguousForwardPanics)
{
    Subnet sn = subnet(0);
    exec->beginSubnet(sn);
    exec->forwardStage(sn, 0, 1, UpdateSemantics::Immediate);
    EXPECT_THROW(
        exec->forwardStage(sn, 3, 3, UpdateSemantics::Immediate),
        std::logic_error);
}

TEST_F(ExecFixture, BackwardBeforeLossPanics)
{
    Subnet sn = subnet(0);
    exec->beginSubnet(sn);
    exec->forwardStage(sn, 0, 3, UpdateSemantics::Immediate);
    EXPECT_THROW(
        exec->backwardStage(sn, 0, 3, UpdateSemantics::Immediate),
        std::logic_error);
}

TEST_F(ExecFixture, FinishBeforeBackwardCompletesPanics)
{
    Subnet sn = subnet(0);
    exec->beginSubnet(sn);
    exec->forwardStage(sn, 0, 3, UpdateSemantics::Immediate);
    exec->computeLoss(sn);
    exec->backwardStage(sn, 2, 3, UpdateSemantics::Immediate);
    EXPECT_THROW(exec->finishSubnet(sn), std::logic_error);
}

TEST_F(ExecFixture, DeferredWritesOnlyAtFlush)
{
    Subnet sn = subnet(0);
    std::uint64_t before = store.touchedHash();
    store.accessLog().keepHistory(true);
    exec->beginSubnet(sn);
    exec->forwardStage(sn, 0, 3, UpdateSemantics::Deferred);
    exec->computeLoss(sn);
    exec->backwardStage(sn, 0, 3, UpdateSemantics::Deferred);
    // No writes yet: reads materialized layers but no WRITE records.
    for (const auto &rec :
         store.accessLog().layerHistory(sn.layer(0))) {
        EXPECT_EQ(rec.kind, AccessKind::Read);
    }
    (void)before;
    exec->applyDeferredUpdates({0});
    float loss = exec->finishSubnet(sn);
    EXPECT_GT(loss, 0.0f);
    EXPECT_EQ(store.version(sn.layer(0)), 1u);
}

TEST_F(ExecFixture, FinishWithUnappliedDeferredPanics)
{
    Subnet sn = subnet(0);
    exec->beginSubnet(sn);
    exec->forwardStage(sn, 0, 3, UpdateSemantics::Deferred);
    exec->computeLoss(sn);
    exec->backwardStage(sn, 0, 3, UpdateSemantics::Deferred);
    EXPECT_THROW(exec->finishSubnet(sn), std::logic_error);
}

TEST_F(ExecFixture, WeightStashGradsUseForwardVersion)
{
    // Two subnets share every layer. Under WeightStash, SN1's
    // backward uses the weights SN1's forward saw, even though SN0's
    // update landed in between => result differs from recompute
    // (Immediate) semantics under the same interleaving.
    auto interleave = [&](UpdateSemantics semantics) {
        ParameterStore s(space, 7);
        NumericExecutor::Config config;
        config.dataSeed = 99;
        config.batch = 192;
        NumericExecutor e(s, config);
        Subnet a(0, {0, 1, 2, 0}), b(1, {0, 1, 2, 0});
        e.beginSubnet(a);
        e.beginSubnet(b);
        e.forwardStage(a, 0, 3, semantics);
        e.computeLoss(a);
        e.forwardStage(b, 0, 3, semantics);  // reads pre-update
        e.computeLoss(b);
        e.backwardStage(a, 0, 3, semantics);  // a's update lands
        e.backwardStage(b, 0, 3, semantics);
        e.finishSubnet(a);
        e.finishSubnet(b);
        return s.supernetHash();
    };
    EXPECT_NE(interleave(UpdateSemantics::WeightStash),
              interleave(UpdateSemantics::Immediate));
}

TEST_F(ExecFixture, SkipLayersPassThrough)
{
    SearchSpace skippy("s", SpaceFamily::Nlp, 4, 3, 3, 0.4);
    ParameterStore s(skippy, 7);
    NumericExecutor::Config config;
    NumericExecutor e(s, config);
    Subnet sn(0, {0, 0, 0, 0});  // all skip: pure identity chain
    e.beginSubnet(sn);
    e.forwardStage(sn, 0, 3, UpdateSemantics::Immediate);
    float loss = e.computeLoss(sn);
    e.backwardStage(sn, 0, 3, UpdateSemantics::Immediate);
    e.finishSubnet(sn);
    // Identity chain: prediction == input digest; loss is just the
    // input/target MSE, and no parameters were touched.
    EXPECT_GT(loss, 0.0f);
    EXPECT_EQ(s.accessLog().totalRecords(), 0u);
}

TEST_F(ExecFixture, EvaluateIsSideEffectFree)
{
    Subnet sn = subnet(0);
    float a = exec->evaluate(sn, 42);
    float b = exec->evaluate(sn, 42);
    EXPECT_EQ(a, b);
    EXPECT_EQ(store.accessLog().totalRecords(), 0u);
    EXPECT_NE(exec->evaluate(sn, 43), a);  // seed matters
}

TEST_F(ExecFixture, DoubleBeginPanics)
{
    Subnet sn = subnet(0);
    exec->beginSubnet(sn);
    EXPECT_THROW(exec->beginSubnet(sn), std::logic_error);
}

TEST_F(ExecFixture, InflightTracking)
{
    EXPECT_EQ(exec->inflight(), 0u);
    exec->beginSubnet(subnet(0));
    exec->beginSubnet(subnet(1, {1, 1, 1, 1}));
    EXPECT_EQ(exec->inflight(), 2u);
}

// --- kept tanh(z): bitwise equal to always recomputing ------------

/**
 * A reference trainer written against the layer kernels directly: it
 * mirrors NumericExecutor's math (fp32, grad noise off, no LR
 * scaling) but always recomputes tanh(z) in backward through
 * layerBackward, from the parameters current at backward time (or the
 * stash under WeightStash).
 */
class RecomputeReference
{
  public:
    RecomputeReference(ParameterStore &store,
                       const NumericExecutor::Config &config)
        : _store(store), _config(config), _sgd(config.sgd)
    {
        Philox4x32 teacher(deriveSeed(config.dataSeed, "teacher"));
        for (std::size_t i = 0; i < kLayerDim; i++) {
            _teacherA[i] = 0.5f + teacher.uniformFloat(i, 0);
            _teacherB[i] = teacher.uniformFloat(i, 1) - 0.5f;
        }
    }

    void
    begin(const Subnet &subnet)
    {
        Run &run = _runs[subnet.id()];
        run.subnet = subnet;
        run.act.assign(static_cast<std::size_t>(subnet.size()) + 1,
                       Tensor(kLayerDim));
        Philox4x32 input(deriveSeed(_config.dataSeed, "input"));
        auto base = static_cast<std::uint64_t>(subnet.id()) * kLayerDim;
        for (std::size_t i = 0; i < kLayerDim; i++) {
            run.act[0][i] = 2.0f * input.uniformFloat(base + i) - 1.0f;
            run.target[i] = kernels::tanh(_teacherA[i] * run.act[0][i] +
                                          _teacherB[i]);
        }
    }

    void
    forward(const Subnet &subnet, UpdateSemantics semantics)
    {
        Run &run = _runs.at(subnet.id());
        for (int b = 0; b < subnet.size(); b++) {
            auto bi = static_cast<std::size_t>(b);
            const LayerParams &params =
                _store.read(subnet.layer(b), subnet.id());
            if (semantics == UpdateSemantics::WeightStash)
                run.stash[b] = params;
            layerForward(params, run.act[bi], run.act[bi + 1]);
        }
        const Tensor &out = run.act.back();
        run.loss = mseLoss(out, run.target);
        mseLossGrad(out, run.target, run.grad);
    }

    void
    backward(const Subnet &subnet, UpdateSemantics semantics)
    {
        Run &run = _runs.at(subnet.id());
        for (int b = subnet.size() - 1; b >= 0; b--) {
            LayerParams source =
                semantics == UpdateSemantics::WeightStash
                    ? run.stash.at(b)
                    : _store.peek(subnet.layer(b));
            LayerGrads grads;
            Tensor gradIn(kLayerDim);
            layerBackward(source, run.act[static_cast<std::size_t>(b)],
                          run.grad, gradIn, grads);
            run.grad = gradIn;
            if (semantics == UpdateSemantics::Deferred)
                run.deferred.emplace(b, grads);
            else
                apply(subnet, b, grads);
        }
    }

    /** BSP flush of @p ids, ascending subnet then block order. */
    void
    flush(std::vector<SubnetId> ids)
    {
        std::sort(ids.begin(), ids.end());
        for (SubnetId id : ids) {
            Run &run = _runs.at(id);
            for (const auto &[b, grads] : run.deferred)
                apply(run.subnet, b, grads);
            run.deferred.clear();
        }
    }

    float loss(SubnetId id) const { return _runs.at(id).loss; }

  private:
    struct Run {
        Subnet subnet;
        std::vector<Tensor> act;
        Tensor target{kLayerDim};
        Tensor grad{kLayerDim};
        float loss = 0.0f;
        std::map<int, LayerParams> stash;
        std::map<int, LayerGrads> deferred;
    };

    void
    apply(const Subnet &subnet, int b, const LayerGrads &grads)
    {
        LayerParams &params = _store.write(subnet.layer(b), subnet.id());
        _sgd.stepView(params.weight, params.bias, grads.weight,
                      grads.bias);
    }

    ParameterStore &_store;
    NumericExecutor::Config _config;
    SgdOptimizer _sgd;
    std::array<float, kLayerDim> _teacherA{};
    std::array<float, kLayerDim> _teacherB{};
    std::map<SubnetId, Run> _runs;
};

/**
 * The executor and the reference side by side, each over its own
 * store of a 2-block space: every step is issued to both, and the
 * stores must stay bitwise equal.
 */
struct KeptTanhFixture : ::testing::Test {
    KeptTanhFixture()
        : space("kept", SpaceFamily::Nlp, 2, 2, 3), store(space, 7),
          refStore(space, 7), exec(store, config()),
          ref(refStore, config())
    {
    }

    static NumericExecutor::Config
    config()
    {
        NumericExecutor::Config c;
        c.dataSeed = 99;
        c.gradNoise = 0.0;
        c.scaleLrWithBatch = false;
        c.sgd.learningRate = 0.5f;  // large steps: stale tanh shows
        return c;
    }

    void
    begin(const Subnet &sn)
    {
        exec.beginSubnet(sn);
        ref.begin(sn);
    }

    void
    forward(const Subnet &sn, UpdateSemantics semantics)
    {
        exec.forwardStage(sn, 0, sn.size() - 1, semantics);
        float loss = exec.computeLoss(sn);
        ref.forward(sn, semantics);
        EXPECT_EQ(loss, ref.loss(sn.id())) << "SN" << sn.id();
    }

    void
    backward(const Subnet &sn, UpdateSemantics semantics)
    {
        exec.backwardStage(sn, 0, sn.size() - 1, semantics);
        ref.backward(sn, semantics);
    }

    void
    finish(const Subnet &sn)
    {
        exec.finishSubnet(sn);
    }

    void
    flush(const std::vector<SubnetId> &ids)
    {
        exec.applyDeferredUpdates(ids);
        ref.flush(ids);
    }

    /** Train @p sn start to finish on both sides (Immediate). */
    void
    train(const Subnet &sn)
    {
        begin(sn);
        forward(sn, UpdateSemantics::Immediate);
        backward(sn, UpdateSemantics::Immediate);
        finish(sn);
    }

    void
    expectStoresEqual()
    {
        EXPECT_EQ(store.touchedHash(), refStore.touchedHash());
        EXPECT_EQ(store.supernetHash(), refStore.supernetHash());
    }

    SearchSpace space;
    ParameterStore store;
    ParameterStore refStore;
    NumericExecutor exec;
    RecomputeReference ref;
};

TEST_F(KeptTanhFixture, ImmediateRecomputesAfterASharedWrite)
{
    // A and B share block 0's layer. B's backward writes it between
    // A's forward and A's backward, so A must recompute tanh(z) from
    // the new parameters; A's block-1 layer is untouched.
    constexpr auto kImm = UpdateSemantics::Immediate;
    Subnet a(0, {0, 0}), b(1, {0, 1});
    begin(a);
    begin(b);
    forward(a, kImm);
    forward(b, kImm);
    backward(b, kImm);
    backward(a, kImm);
    finish(a);
    finish(b);
    expectStoresEqual();
}

TEST_F(KeptTanhFixture, ImmediateRecomputesAfterLoadRestoresAVersion)
{
    // After the load, A's layers are at the version A's forward read
    // but hold other bits: only the load epoch tells them apart.
    constexpr auto kImm = UpdateSemantics::Immediate;
    // Materialized, so the checkpoints carry every layer.
    store.materializeAll();
    refStore.materializeAll();
    const std::string fresh = store.serialize();
    const std::string fresh2 = refStore.serialize();
    train(Subnet(0, {0, 1}));  // version 1 with P's bits
    const std::string trained = store.serialize();
    const std::string trained2 = refStore.serialize();
    ASSERT_TRUE(store.load(fresh));
    ASSERT_TRUE(refStore.load(fresh2));
    train(Subnet(1, {0, 1}));  // version 1 again, Q's bits

    Subnet a(2, {0, 1});
    begin(a);
    forward(a, kImm);
    ASSERT_TRUE(store.load(trained));
    ASSERT_TRUE(refStore.load(trained2));
    backward(a, kImm);
    finish(a);
    expectStoresEqual();
}

TEST_F(KeptTanhFixture, WeightStashUsesKeptTanhOfTheStash)
{
    constexpr auto kStash = UpdateSemantics::WeightStash;
    Subnet a(0, {1, 0}), b(1, {1, 1});
    begin(a);
    begin(b);
    forward(a, kStash);
    forward(b, kStash);
    backward(a, kStash);  // lands on the layer b's stash froze
    backward(b, kStash);
    finish(a);
    finish(b);
    expectStoresEqual();
}

TEST_F(KeptTanhFixture, DeferredRecomputesAfterAFlush)
{
    // P's flush writes the layers A read between A's forward and A's
    // backward; a later bulk then flushes A.
    constexpr auto kDef = UpdateSemantics::Deferred;
    Subnet p(0, {0, 1}), a(1, {0, 0}), c(2, {1, 0});
    begin(p);
    forward(p, kDef);
    backward(p, kDef);
    begin(a);
    begin(c);
    forward(a, kDef);
    forward(c, kDef);
    flush({p.id()});
    finish(p);
    backward(a, kDef);
    backward(c, kDef);
    flush({a.id(), c.id()});
    finish(a);
    finish(c);
    expectStoresEqual();
}

TEST(UpdateSemanticsName, Named)
{
    EXPECT_STREQ(updateSemanticsName(UpdateSemantics::Immediate),
                 "immediate");
    EXPECT_STREQ(updateSemanticsName(UpdateSemantics::WeightStash),
                 "weight-stash");
    EXPECT_STREQ(updateSemanticsName(UpdateSemantics::Deferred),
                 "deferred");
}

} // namespace
} // namespace naspipe
