/**
 * @file
 * Tenant-layer tests: TenantRegistry registration/quota/accounting
 * semantics, the WFQ virtual clock (charge at admission, refund on
 * cancel, idle catch-up), and weighted-fair share convergence when
 * the registry's tags drive the ItemQueue under a saturating
 * two-tenant load.
 */

#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "serve/scheduler.h"
#include "serve/tenant.h"

namespace heap::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(TenantRegistry, RegistrationAndSpecLookup)
{
    TenantRegistry reg;
    reg.registerTenant({.id = 1, .name = "acme", .weight = 2.0});
    reg.registerTenant(
        {.id = 2, .name = "globex", .priority = 3, .keyBytes = 99});
    EXPECT_TRUE(reg.known(1));
    EXPECT_FALSE(reg.known(3));
    EXPECT_EQ(reg.count(), 2u);
    EXPECT_EQ(reg.tenantIds(), (std::vector<uint64_t>{1, 2}));
    EXPECT_EQ(reg.spec(1).name, "acme");
    EXPECT_EQ(reg.spec(2).priority, 3);

    EXPECT_THROW(reg.registerTenant({.id = 1}), UserError);
    EXPECT_THROW(reg.registerTenant({.id = 0}), UserError);
    EXPECT_THROW(reg.registerTenant({.id = 9, .weight = 0.0}),
                 UserError);
    EXPECT_THROW(reg.spec(1234), UserError);
}

TEST(TenantRegistry, QuotaBoundsInFlightAndCountsRejections)
{
    TenantRegistry reg;
    reg.registerTenant({.id = 1, .maxInFlight = 2});
    ASSERT_TRUE(reg.tryAdmit(1, 64).has_value());
    ASSERT_TRUE(reg.tryAdmit(1, 64).has_value());
    EXPECT_FALSE(reg.tryAdmit(1, 64).has_value()); // quota
    EXPECT_EQ(reg.stats(1).rejectedQuota, 1u);
    EXPECT_EQ(reg.stats(1).inFlight, 2u);
    EXPECT_EQ(reg.stats(1).submitted, 2u);

    reg.onComplete(1, 64, /*ok=*/true);
    EXPECT_TRUE(reg.tryAdmit(1, 64).has_value()); // slot freed
    EXPECT_EQ(reg.stats(1).completed, 1u);
    EXPECT_EQ(reg.stats(1).servedItems, 64u);

    reg.onComplete(1, 64, /*ok=*/false);
    EXPECT_EQ(reg.stats(1).failed, 1u);
    EXPECT_EQ(reg.stats(1).servedItems, 64u); // failures earn nothing
}

TEST(TenantRegistry, VirtualClockChargesByWeightAndRefundsOnCancel)
{
    TenantRegistry reg;
    reg.registerTenant({.id = 1, .weight = 1.0});
    reg.registerTenant({.id = 2, .weight = 4.0});

    // Tenant 1's first admission is tagged 0 and charged 100/1.
    const auto a1 = reg.tryAdmit(1, 100);
    EXPECT_DOUBLE_EQ(a1->fairRank, 0.0);
    // Tenant 2 wakes while tenant 1 is busy: it catches up to the
    // busy floor (100) first, then is charged 100/4 = 25.
    const auto a2 = reg.tryAdmit(2, 100);
    EXPECT_DOUBLE_EQ(a2->fairRank, 100.0);
    EXPECT_DOUBLE_EQ(reg.stats(2).virtualService, 125.0);
    // Identical item counts charge inversely to weight: +100 for
    // weight 1, +25 for weight 4.
    EXPECT_DOUBLE_EQ(reg.tryAdmit(1, 100)->fairRank, 100.0);
    EXPECT_DOUBLE_EQ(reg.tryAdmit(2, 100)->fairRank, 125.0);
    EXPECT_DOUBLE_EQ(reg.stats(1).virtualService, 200.0);
    EXPECT_DOUBLE_EQ(reg.stats(2).virtualService, 150.0);

    // A capacity rejection refunds the charge exactly.
    const double before = reg.stats(1).virtualService;
    ASSERT_TRUE(reg.tryAdmit(1, 100).has_value());
    reg.cancelAdmit(1, 100);
    EXPECT_DOUBLE_EQ(reg.stats(1).virtualService, before);
    EXPECT_EQ(reg.stats(1).rejectedCapacity, 1u);
    EXPECT_EQ(reg.stats(1).inFlight, 2u);
}

TEST(TenantRegistry, IdleTenantCatchesUpInsteadOfBankingCredit)
{
    TenantRegistry reg;
    reg.registerTenant({.id = 1, .weight = 1.0});
    reg.registerTenant({.id = 2, .weight = 1.0});

    // Tenant 1 runs alone for a while: its clock advances to 500.
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(reg.tryAdmit(1, 100).has_value());
    }
    // Tenant 2 wakes up while tenant 1 is busy: it enters at the busy
    // floor (500), not at 0 — sleeping banked no credit.
    EXPECT_DOUBLE_EQ(reg.tryAdmit(2, 100)->fairRank, 500.0);
}

TEST(TenantRegistry, FairnessRatioIsWeightNormalized)
{
    TenantRegistry reg;
    reg.registerTenant({.id = 1, .weight = 1.0});
    reg.registerTenant({.id = 2, .weight = 3.0});
    EXPECT_TRUE(std::isnan(reg.fairnessRatio())); // nobody qualified

    // Tenant 2 served exactly 3x tenant 1's items: weighted shares
    // are equal, the ratio is 1.
    (void)reg.tryAdmit(1, 64);
    reg.onComplete(1, 64, true);
    for (int i = 0; i < 3; ++i) {
        (void)reg.tryAdmit(2, 64);
        reg.onComplete(2, 64, true);
    }
    EXPECT_DOUBLE_EQ(reg.fairnessRatio(), 1.0);

    // minCompleted filters occasional tenants out.
    EXPECT_TRUE(std::isnan(reg.fairnessRatio(/*minCompleted=*/2)));
}

// ---------------------------------------------------------------- //
// Weighted-fair convergence: registry tags driving the ItemQueue   //
// ---------------------------------------------------------------- //

/**
 * Saturating closed-loop simulation: each tenant keeps `backlog`
 * requests pending at all times; batches of `batchItems` form from
 * the shared ItemQueue with the registry's fair tags. Returns served
 * items per tenant.
 */
std::map<uint64_t, uint64_t>
simulateFairShare(TenantRegistry& reg,
                  const std::vector<uint64_t>& tenants, size_t backlog,
                  size_t itemsPerRequest, size_t batchItems,
                  size_t batches)
{
    ItemQueue q(8);
    uint64_t nextReq = 1;
    std::map<uint64_t, uint64_t> reqTenant; ///< request -> tenant
    std::map<uint64_t, size_t> pendingPerTenant;
    std::map<uint64_t, uint64_t> served;
    std::map<uint64_t, size_t> itemsLeft; ///< per live request

    const auto refill = [&] {
        for (const uint64_t t : tenants) {
            while (pendingPerTenant[t] < backlog) {
                const auto adm = reg.tryAdmit(t, itemsPerRequest);
                ASSERT_TRUE(adm.has_value()) << "tenant " << t;
                q.addRequest(nextReq, 0, kInf, itemsPerRequest,
                             adm->fairRank);
                reqTenant[nextReq] = t;
                itemsLeft[nextReq] = itemsPerRequest;
                ++pendingPerTenant[t];
                ++nextReq;
            }
        }
    };

    for (size_t b = 0; b < batches; ++b) {
        refill();
        const PlannedBatch batch = q.formBatch(batchItems);
        for (const WorkItem& w : batch.items) {
            const uint64_t t = reqTenant.at(w.requestId);
            ++served[t];
            if (--itemsLeft.at(w.requestId) == 0) {
                reg.onComplete(t, itemsPerRequest, true);
                --pendingPerTenant.at(t);
                itemsLeft.erase(w.requestId);
            }
        }
    }
    return served;
}

TEST(WeightedFair, TwoTenantSharesConvergeToWeights)
{
    // Tenant 2 has 3x the weight of tenant 1; under a saturating
    // closed loop its served-item share must converge to 3x within
    // the ISSUE's 1.5x tolerance (it lands much closer).
    TenantRegistry reg;
    reg.registerTenant({.id = 1, .weight = 1.0});
    reg.registerTenant({.id = 2, .weight = 3.0});
    const auto served = simulateFairShare(reg, {1, 2}, /*backlog=*/4,
                                          /*itemsPerRequest=*/64,
                                          /*batchItems=*/48,
                                          /*batches=*/200);
    const double ratio = static_cast<double>(served.at(2))
                         / static_cast<double>(served.at(1));
    EXPECT_GT(ratio, 3.0 / 1.5) << served.at(1) << ":" << served.at(2);
    EXPECT_LT(ratio, 3.0 * 1.5) << served.at(1) << ":" << served.at(2);
    // The registry agrees with the simulation's own count.
    EXPECT_EQ(reg.fairnessRatio() < 1.5, true)
        << "registry ratio " << reg.fairnessRatio();
}

TEST(WeightedFair, EqualWeightsSplitEvenlyDespitePriorityFlood)
{
    // Tenant 1 submits everything at priority 9; fairness outranks
    // priority, so equal weights still split the service evenly.
    TenantRegistry reg;
    reg.registerTenant({.id = 1, .weight = 1.0, .priority = 9});
    reg.registerTenant({.id = 2, .weight = 1.0});

    ItemQueue q(8);
    uint64_t nextReq = 1;
    std::map<uint64_t, uint64_t> reqTenant;
    std::map<uint64_t, uint64_t> served;
    for (int round = 0; round < 50; ++round) {
        for (const uint64_t t : {1ull, 2ull}) {
            const auto adm = reg.tryAdmit(t, 8);
            ASSERT_TRUE(adm.has_value());
            q.addRequest(nextReq, t == 1 ? 9 : 0, kInf, 8,
                         adm->fairRank);
            reqTenant[nextReq] = t;
            ++nextReq;
        }
        const PlannedBatch b = q.formBatch(8);
        std::map<uint64_t, size_t> done;
        for (const WorkItem& w : b.items) {
            ++served[reqTenant.at(w.requestId)];
        }
        // Retire fully-served requests (every request is 8 items, so
        // each batch completes exactly one request).
        for (const WorkItem& w : b.items) {
            ++done[w.requestId];
        }
        for (const auto& [req, n] : done) {
            if (n == 8) {
                reg.onComplete(reqTenant.at(req), 8, true);
            }
        }
    }
    const double ratio = static_cast<double>(served.at(1))
                         / static_cast<double>(served.at(2));
    EXPECT_GT(ratio, 1.0 / 1.5);
    EXPECT_LT(ratio, 1.5);
}

} // namespace
} // namespace heap::serve
