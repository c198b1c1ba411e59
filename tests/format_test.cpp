/**
 * @file
 * Pins the byte format of every cache and request key. The prediction
 * cache persists its keys (`--cache-save` / `--cache-load` snapshots)
 * and the router hashes request fingerprints onto shards, so the
 * formatter behind them must reproduce printf("%.17g") exactly: the
 * helper is checked against snprintf on special values and random bit
 * patterns, and literal fingerprints written by the snprintf-based
 * formatter are pinned so a snapshot saved by an older build still
 * loads and hits.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "common/format.hpp"
#include "common/json.hpp"
#include "core/kernel_cache.hpp"
#include "gpusim/gpu_spec.hpp"
#include "gpusim/kernel_desc.hpp"
#include "gpusim/spec_io.hpp"
#include "serve/request.hpp"
#include "serve/wire.hpp"

namespace neusight {
namespace {

std::string
viaPrintf(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
viaHelper(double v)
{
    std::string out;
    appendG17(out, v);
    return out;
}

double
fromBits(uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

TEST(KeyFormat, SpecialValuesMatchPrintf)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double cases[] = {
        0.0, -0.0, inf, -inf, nan, -nan,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::epsilon(),
        // Integers above 2^53, where not every integer is a double.
        9007199254740992.0, 9007199254740994.0, 18014398509481990.0,
        1e17, 1e20, 1.2345678901234567e18, 12345678901234567890.0,
        // Around the %g switch to exponent notation.
        1e16, 99999999999999999.0, 1e-4, 1e-5, 0.0001234,
        0.1, 0.3, 1.0 / 3.0, 66.9, 989.4, 1234.5678, 1.0, 42.0};
    for (double v : cases)
        EXPECT_EQ(viaHelper(v), viaPrintf(v)) << viaPrintf(v);
}

TEST(KeyFormat, RandomBitPatternsMatchPrintf)
{
    // Uniform bit patterns cover every exponent, both signs, subnormals
    // and NaN payloads.
    std::mt19937_64 rng(20261017);
    size_t mismatches = 0;
    for (int i = 0; i < 1000000; ++i) {
        const uint64_t bits = rng();
        const double v = fromBits(bits);
        if (viaHelper(v) != viaPrintf(v) && ++mismatches <= 5)
            ADD_FAILURE() << "bits 0x" << std::hex << bits << ": helper "
                          << viaHelper(v) << " printf " << viaPrintf(v);
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(KeyFormat, IntegersMatchPrintf)
{
    for (int v : {0, 1, -1, 7, INT_MAX, INT_MIN}) {
        std::string out;
        appendInt(out, v);
        EXPECT_EQ(out, std::to_string(v));
    }
    for (unsigned long long v : {0ull, 1ull, 9007199254740993ull,
                                 ULLONG_MAX}) {
        std::string out;
        appendInt(out, v);
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu", v);
        EXPECT_EQ(out, buf);
    }
}

// The literals below were produced by the snprintf-based formatter
// that wrote every existing cache snapshot.
constexpr const char *kH100Suffix =
    "@H100|0|66.900000000000006|66.900000000000006|989.39999999999998|80|"
    "3430|132|50|900";

TEST(KeyFormat, CacheFingerprintsArePinned)
{
    EXPECT_EQ(core::cacheFingerprint(gpusim::makeLinear(1024, 768, 768),
                                     gpusim::findGpu("H100")),
              std::string("1|linear|1024x768x|768|1208745984|8650752|0|0") +
                  kH100Suffix);

    // The canonical key maps a backward kernel onto its forward op.
    gpusim::KernelDesc bwd = gpusim::makeLayerNorm(4096, 1024);
    bwd.opName = "layernorm_bwd";
    EXPECT_EQ(core::cacheFingerprint(bwd, gpusim::findGpu("A100-40GB")),
              "4|layernorm|4096x1024x|0|33554432|33562624|0|0@A100-40GB|0|"
              "19.5|19.5|312|40|1555|108|40|600");

    // A JSON-defined GPU with numbers that do not print short, and a
    // tensor-core kernel under the raw (non-canonical) key.
    const gpusim::GpuSpec custom =
        gpusim::gpuSpecFromJson(common::Json::parse(
            "{\"name\":\"Custom-X\",\"vendor\":\"amd\","
            "\"peak_fp32_tflops\":37.123456789,"
            "\"matrix_fp32_tflops\":74.1,\"fp16_tensor_tflops\":301.7,"
            "\"memory_size_gb\":47.9,\"memory_bw_gbps\":1234.5678,"
            "\"num_sms\":97,\"l2_cache_mb\":0.1,"
            "\"interconnect_gbps\":0.3}"));
    EXPECT_EQ(core::cacheFingerprint(
                  gpusim::makeBmm(12, 1000, 64, 1000,
                                  gpusim::DataType::Fp16, true),
                  custom, /*canonical_op=*/false),
              "0|bmm|12x1000x64x|1000|1536000000|27072000|1|1@Custom-X|1|"
              "37.123456789000002|74.099999999999994|301.69999999999999|"
              "47.899999999999999|1234.5678|97|0.10000000000000001|"
              "0.29999999999999999");
}

TEST(KeyFormat, RequestFingerprintsArePinned)
{
    const serve::ForecastRequest sweep =
        serve::requestFromJson(common::Json::parse(
            "{\"op\":\"sweep\",\"model\":\"GPT2-Large\",\"gpu\":\"H100\","
            "\"num_gpus\":8,\"global_batch\":64,\"link_gbps\":412.3,"
            "\"backend\":\"oracle\"}"));
    EXPECT_EQ(sweep.fingerprint(),
              std::string("oracle!sweep|GPT2-Large|b1|p0|d0|n8|g64|"
                          "l412.30000000000001") +
                  kH100Suffix);

    const serve::ForecastRequest sim =
        serve::requestFromJson(common::Json::parse(
            "{\"op\":\"simulate\",\"model\":\"GPT2-Large\","
            "\"gpu\":\"H100\",\"global_batch\":16,\"pp\":4,"
            "\"micro_batches\":8,\"schedule\":\"zero-bubble\","
            "\"jitter\":0.1,\"seed\":7}"));
    EXPECT_EQ(sim.fingerprint(),
              std::string("!simulate|GPT2-Large|b1|p0|d0|n4|g16|tp1|pp4|"
                          "dp1|m8|sch3|v2|r0|l0|j0.10000000000000001|s7") +
                  kH100Suffix);
}

} // namespace
} // namespace neusight
