/**
 * @file
 * Tests for the configuration substrate: the JSON parser/writer
 * (grammar coverage, escapes, error positions, round-trip property,
 * and the number paths pinned against the stod/ostream originals),
 * the command-line parser, and the GpuSpec / ModelConfig JSON loaders
 * used by the tools/ binaries.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>

#include "common/argparse.hpp"
#include "common/json.hpp"
#include "gpusim/spec_io.hpp"
#include "graph/model_io.hpp"

namespace neusight {
namespace {

using common::ArgParser;
using common::Json;

// ---------------------------------------------------------------- Json --

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(Json::parse("null").isNull());
    EXPECT_TRUE(Json::parse("true").asBool());
    EXPECT_FALSE(Json::parse("false").asBool());
    EXPECT_DOUBLE_EQ(Json::parse("42").asDouble(), 42.0);
    EXPECT_DOUBLE_EQ(Json::parse("-17.25").asDouble(), -17.25);
    EXPECT_DOUBLE_EQ(Json::parse("6.02e23").asDouble(), 6.02e23);
    EXPECT_DOUBLE_EQ(Json::parse("1E-3").asDouble(), 1e-3);
    EXPECT_EQ(Json::parse("\"hi\"").asString(), "hi");
}

TEST(Json, ParsesNestedStructures)
{
    const Json doc = Json::parse(
        R"({"gpu": {"name": "H100", "sms": 132}, "batches": [1, 2, 4]})");
    EXPECT_EQ(doc.at("gpu").at("name").asString(), "H100");
    EXPECT_EQ(doc.at("gpu").at("sms").asInt(), 132);
    ASSERT_EQ(doc.at("batches").asArray().size(), 3u);
    EXPECT_EQ(doc.at("batches").asArray()[2].asInt(), 4);
}

TEST(Json, ParsesEmptyContainers)
{
    EXPECT_TRUE(Json::parse("{}").asObject().empty());
    EXPECT_TRUE(Json::parse("[]").asArray().empty());
    EXPECT_TRUE(Json::parse("  [ ]  ").asArray().empty());
}

TEST(Json, DecodesEscapes)
{
    EXPECT_EQ(Json::parse(R"("a\nb\tc")").asString(), "a\nb\tc");
    EXPECT_EQ(Json::parse(R"("quote \" backslash \\")").asString(),
              "quote \" backslash \\");
    EXPECT_EQ(Json::parse(R"("A")").asString(), "A");
    // Two-byte and three-byte UTF-8.
    EXPECT_EQ(Json::parse(R"("é")").asString(), "\xc3\xa9");
    EXPECT_EQ(Json::parse(R"("€")").asString(), "\xe2\x82\xac");
    // Surrogate pair -> 4-byte UTF-8 (U+1F600).
    EXPECT_EQ(Json::parse(R"("😀")").asString(),
              "\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "nul", "tru", "01",
          "1.", "1e", "\"unterminated", "\"bad\\q\"", "[1] garbage",
          "{\"a\":1,}", "'single'", "\"\\ud800\""}) {
        EXPECT_THROW(Json::parse(bad), std::runtime_error) << bad;
    }
}

TEST(Json, ErrorsCarryLineAndColumn)
{
    try {
        Json::parse("{\n  \"a\": 1,\n  \"b\": oops\n}");
        FAIL() << "expected parse error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
            << e.what();
    }
}

TEST(Json, AccessorsRejectWrongTypes)
{
    const Json num = Json::parse("3.5");
    EXPECT_THROW(num.asString(), std::runtime_error);
    EXPECT_THROW(num.asBool(), std::runtime_error);
    EXPECT_THROW(num.asArray(), std::runtime_error);
    EXPECT_THROW(num.asInt(), std::runtime_error); // Not integral.
    EXPECT_THROW(num.at("key"), std::runtime_error);
    EXPECT_NO_THROW(Json::parse("3").asInt());
}

TEST(Json, OptionalAccessorsFallBack)
{
    const Json doc = Json::parse(R"({"present": 2.5, "flag": true})");
    EXPECT_DOUBLE_EQ(doc.numberOr("present", 0.0), 2.5);
    EXPECT_DOUBLE_EQ(doc.numberOr("absent", 7.0), 7.0);
    EXPECT_TRUE(doc.boolOr("flag", false));
    EXPECT_FALSE(doc.boolOr("absent", false));
    EXPECT_EQ(doc.stringOr("absent", "dflt"), "dflt");
    EXPECT_FALSE(doc.has("absent"));
    EXPECT_TRUE(doc.has("present"));
}

TEST(Json, SetOverwritesAndAppends)
{
    Json doc;
    doc.set("a", 1);
    doc.set("b", "two");
    doc.set("a", 3); // Overwrite, no duplicate key.
    EXPECT_EQ(doc.asObject().size(), 2u);
    EXPECT_EQ(doc.at("a").asInt(), 3);
}

TEST(Json, DumpRoundTripsStructurally)
{
    const char *text =
        R"({"name":"L4\n","values":[1,2.5,true,null],"nested":{"x":-3}})";
    const Json doc = Json::parse(text);
    for (int indent : {0, 2, 4}) {
        const Json again = Json::parse(doc.dump(indent));
        EXPECT_TRUE(again == doc) << "indent=" << indent;
    }
}

TEST(Json, DumpKeepsIntegersIntegral)
{
    Json doc;
    doc.set("sms", 132);
    doc.set("bw", 3430.5);
    const std::string text = doc.dump(0);
    EXPECT_NE(text.find("\"sms\":132"), std::string::npos) << text;
    EXPECT_NE(text.find("3430.5"), std::string::npos) << text;
}

// Number pins: parse must give std::stod's bits wherever stod succeeds,
// and dump must give the bytes of an ostream at precision 17.

uint64_t
bitsOf(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double
fromBits(uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/** Json's number text as the ostream-based writer produced it. */
std::string
ostreamDump(double v)
{
    if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15)
        return std::to_string(static_cast<int64_t>(v));
    std::ostringstream oss;
    oss.precision(17);
    oss << v;
    return oss.str();
}

TEST(Json, ParsesSubnormalsToTheNearestDouble)
{
    // std::stod throws out_of_range on these; strtod rounds them
    // correctly (while setting ERANGE), so it is the reference.
    for (const char *text :
         {"1e-310", "-1e-310", "4.9406564584124654e-324",
          "2.2250738585072009e-308", "1.5e-323"}) {
        const double want = std::strtod(text, nullptr);
        ASSERT_NE(want, 0.0) << text;
        EXPECT_EQ(bitsOf(Json::parse(text).asDouble()), bitsOf(want))
            << text;
    }
    EXPECT_EQ(Json::parse("4.9406564584124654e-324").asDouble(),
              std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(Json::parse(R"({"x":[1e-310]})").at("x").asArray()[0]
                  .asDouble(),
              std::strtod("1e-310", nullptr));
}

TEST(Json, OutOfRangeNumbersAreTypedErrors)
{
    for (const char *text :
         {"1e999", "-1e999", "1e-400", "-1e-400", "[1, 2e400]"}) {
        try {
            Json::parse(text);
            FAIL() << "expected a range error for " << text;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("json: number out of range"),
                      std::string::npos)
                << e.what();
        }
    }
    // Zero with any exponent is exact, not an underflow.
    EXPECT_EQ(Json::parse("0e-400").asDouble(), 0.0);
    EXPECT_TRUE(std::signbit(Json::parse("-0").asDouble()));
}

TEST(Json, DumpMatchesOstreamBytes)
{
    const double cases[] = {
        0.0, -0.0, 1e15, -1e15, 999999999999999.0, -999999999999999.0,
        1e15 + 2.0, 1e15 - 0.5, std::nextafter(1e15, 0.0),
        std::nextafter(1e15, 2e15), -1.0, -42.0, -123456789012345.0,
        -9007199254740993.0, 0.1, -66.9, 1e-5, 1e300,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest()};
    for (double v : cases)
        EXPECT_EQ(Json(v).dump(0), ostreamDump(v)) << ostreamDump(v);

    std::mt19937_64 rng(20261017);
    for (int i = 0; i < 1000000; ++i) {
        const double v = fromBits(rng());
        if (!std::isfinite(v))
            continue;
        const std::string got = Json(v).dump(0);
        const std::string expected = ostreamDump(v);
        if (got != expected) {
            ADD_FAILURE() << "bits " << bitsOf(v) << ": " << got
                          << " != " << expected;
            break;
        }
    }
}

TEST(Json, ParseMatchesStodBitsWhereStodSucceeds)
{
    std::mt19937_64 rng(7);
    auto digits = [&](int n, bool leading) {
        std::string out;
        for (int i = 0; i < n; ++i) {
            const int lo = (leading && i == 0) ? 1 : 0;
            out += static_cast<char>('0' + lo + rng() % (10 - lo));
        }
        return out;
    };
    int compared = 0;
    for (int i = 0; i < 200000; ++i) {
        std::string text;
        if (i % 2 == 0) {
            // Formatted doubles, the shapes real writers emit.
            const double v = fromBits(rng());
            if (!std::isfinite(v))
                continue;
            char buf[64];
            static const char *formats[] = {"%.17g", "%.6g", "%.3e",
                                            "%.1f"};
            std::snprintf(buf, sizeof(buf), formats[rng() % 4], v);
            text = buf;
            if (text.size() > 40)
                continue; // %.1f of a huge value: covered by %.17g.
        } else {
            // Arbitrary JSON number tokens, long mantissas included.
            if (rng() % 2)
                text += '-';
            text += rng() % 8 == 0 ? "0"
                                   : digits(1 + static_cast<int>(rng() % 25),
                                            true);
            if (rng() % 2)
                text += "." + digits(1 + static_cast<int>(rng() % 25), false);
            if (rng() % 2)
                text += (rng() % 2 ? "e" : "E") +
                        std::to_string(static_cast<int>(rng() % 700) - 350);
        }
        double want = 0.0;
        try {
            want = std::stod(text);
        } catch (const std::out_of_range &) {
            continue;
        }
        ASSERT_EQ(bitsOf(Json::parse(text).asDouble()), bitsOf(want))
            << text;
        ++compared;
    }
    EXPECT_GT(compared, 150000);
}

TEST(Json, ParseFileReportsMissingFile)
{
    EXPECT_THROW(Json::parseFile("/nonexistent/nope.json"),
                 std::runtime_error);
}

TEST(Json, FileRoundTrip)
{
    const std::string path = "/tmp/neusight_json_roundtrip.json";
    Json doc;
    doc.set("alpha", 0.93);
    doc.set("ops", Json(Json::Array{Json("bmm"), Json("linear")}));
    {
        std::ofstream out(path);
        out << doc.dump();
    }
    EXPECT_TRUE(Json::parseFile(path) == doc);
    std::remove(path.c_str());
}

// ------------------------------------------------------------ ArgParser --

ArgParser
makeParser()
{
    ArgParser args("tool", "test parser");
    args.addString("model", "GPT3-XL", "model name");
    args.addInt("batch", 8, "batch size");
    args.addDouble("scale", 1.0, "scale factor");
    args.addFlag("fuse", "enable fusion");
    return args;
}

TEST(ArgParse, DefaultsApplyWithoutArguments)
{
    ArgParser args = makeParser();
    const char *argv[] = {"tool"};
    ASSERT_TRUE(args.parse(1, argv));
    EXPECT_EQ(args.getString("model"), "GPT3-XL");
    EXPECT_EQ(args.getInt("batch"), 8);
    EXPECT_DOUBLE_EQ(args.getDouble("scale"), 1.0);
    EXPECT_FALSE(args.getFlag("fuse"));
    EXPECT_FALSE(args.given("model"));
}

TEST(ArgParse, ParsesTypedValuesAndFlags)
{
    ArgParser args = makeParser();
    const char *argv[] = {"tool", "--model", "BERT-Large", "--batch", "16",
                          "--scale", "0.25", "--fuse"};
    ASSERT_TRUE(args.parse(8, argv));
    EXPECT_EQ(args.getString("model"), "BERT-Large");
    EXPECT_EQ(args.getInt("batch"), 16);
    EXPECT_DOUBLE_EQ(args.getDouble("scale"), 0.25);
    EXPECT_TRUE(args.getFlag("fuse"));
    EXPECT_TRUE(args.given("batch"));
}

TEST(ArgParse, HelpShortCircuits)
{
    ArgParser args = makeParser();
    const char *argv[] = {"tool", "--help"};
    ::testing::internal::CaptureStdout();
    EXPECT_FALSE(args.parse(2, argv));
    const std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("--model"), std::string::npos);
    EXPECT_NE(out.find("default: GPT3-XL"), std::string::npos);
}

TEST(ArgParse, RejectsBadInput)
{
    {
        ArgParser args = makeParser();
        const char *argv[] = {"tool", "--unknown", "1"};
        EXPECT_THROW(args.parse(3, argv), std::runtime_error);
    }
    {
        ArgParser args = makeParser();
        const char *argv[] = {"tool", "--batch"};
        EXPECT_THROW(args.parse(2, argv), std::runtime_error);
    }
    {
        ArgParser args = makeParser();
        const char *argv[] = {"tool", "--batch", "eight"};
        EXPECT_THROW(args.parse(3, argv), std::runtime_error);
    }
    {
        ArgParser args = makeParser();
        const char *argv[] = {"tool", "--scale", "1.5x"};
        EXPECT_THROW(args.parse(3, argv), std::runtime_error);
    }
    {
        ArgParser args = makeParser();
        const char *argv[] = {"tool", "positional"};
        EXPECT_THROW(args.parse(2, argv), std::runtime_error);
    }
}

// --------------------------------------------------------------- SpecIo --

Json
validSpecJson()
{
    return Json::parse(R"({
        "name": "B200", "vendor": "nvidia", "year": 2025,
        "peak_fp32_tflops": 80.0, "fp16_tensor_tflops": 2250.0,
        "memory_size_gb": 192.0, "memory_bw_gbps": 8000.0,
        "num_sms": 160, "l2_cache_mb": 64.0,
        "interconnect_gbps": 1800.0
    })");
}

TEST(SpecIo, ParsesAnnouncedSpecSheet)
{
    const gpusim::GpuSpec spec = gpusim::gpuSpecFromJson(validSpecJson());
    EXPECT_EQ(spec.name, "B200");
    EXPECT_EQ(spec.vendor, gpusim::Vendor::Nvidia);
    EXPECT_DOUBLE_EQ(spec.peakFp32Tflops, 80.0);
    // Matrix peak defaults to the vector peak on NVIDIA parts.
    EXPECT_DOUBLE_EQ(spec.matrixFp32Tflops, 80.0);
    EXPECT_DOUBLE_EQ(spec.fp16TensorTflops, 2250.0);
    EXPECT_EQ(spec.numSms, 160);
    EXPECT_FALSE(spec.inTrainingSet);
}

TEST(SpecIo, RoundTripsEveryDatabaseGpu)
{
    for (const gpusim::GpuSpec &spec : gpusim::deviceDatabase()) {
        const gpusim::GpuSpec again =
            gpusim::gpuSpecFromJson(gpusim::gpuSpecToJson(spec));
        EXPECT_EQ(again.name, spec.name);
        EXPECT_EQ(again.vendor, spec.vendor);
        EXPECT_DOUBLE_EQ(again.peakFp32Tflops, spec.peakFp32Tflops);
        EXPECT_DOUBLE_EQ(again.matrixFp32Tflops, spec.matrixFp32Tflops);
        EXPECT_DOUBLE_EQ(again.memoryBwGBps, spec.memoryBwGBps);
        EXPECT_EQ(again.numSms, spec.numSms);
        EXPECT_DOUBLE_EQ(again.l2CacheMB, spec.l2CacheMB);
        EXPECT_EQ(again.inTrainingSet, spec.inTrainingSet);
    }
}

TEST(SpecIo, RejectsNonPhysicalValues)
{
    for (const char *key :
         {"peak_fp32_tflops", "memory_size_gb", "memory_bw_gbps", "num_sms",
          "l2_cache_mb"}) {
        Json bad = validSpecJson();
        bad.set(key, 0);
        EXPECT_THROW(gpusim::gpuSpecFromJson(bad), std::runtime_error)
            << key;
    }
    Json bad_vendor = validSpecJson();
    bad_vendor.set("vendor", "intel");
    EXPECT_THROW(gpusim::gpuSpecFromJson(bad_vendor), std::runtime_error);
}

TEST(SpecIo, RejectsMissingRequiredKey)
{
    Json missing;
    missing.set("name", "X");
    EXPECT_THROW(gpusim::gpuSpecFromJson(missing), std::runtime_error);
}

TEST(SpecIo, FileRoundTripAndResolve)
{
    const std::string path = "/tmp/neusight_specs.json";
    std::vector<gpusim::GpuSpec> specs = {
        gpusim::gpuSpecFromJson(validSpecJson()), gpusim::findGpu("T4")};
    gpusim::saveGpuSpecs(specs, path);
    const auto loaded = gpusim::loadGpuSpecs(path);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded[0].name, "B200");
    EXPECT_EQ(loaded[1].name, "T4");
    // resolveGpu prefers the database, falls back to a file path.
    EXPECT_EQ(gpusim::resolveGpu("H100").name, "H100");
    EXPECT_EQ(gpusim::resolveGpu(path).name, "B200");
    EXPECT_THROW(gpusim::resolveGpu("/nonexistent.json"),
                 std::runtime_error);
    std::remove(path.c_str());
}

// -------------------------------------------------------------- ModelIo --

Json
validModelJson()
{
    return Json::parse(R"({
        "name": "LLaMA-7B-ish", "num_layers": 32, "hidden": 4096,
        "heads": 32, "seq": 2048, "vocab": 32000
    })");
}

TEST(ModelIo, ParsesCustomArchitecture)
{
    const graph::ModelConfig config =
        graph::modelConfigFromJson(validModelJson());
    EXPECT_EQ(config.name, "LLaMA-7B-ish");
    EXPECT_EQ(config.numLayers, 32u);
    EXPECT_EQ(config.hidden, 4096u);
    EXPECT_EQ(config.ffWidth(), 4u * 4096); // Default 4*hidden.
    EXPECT_EQ(config.numExperts, 1u);
    EXPECT_FALSE(config.encoderOnly);
}

TEST(ModelIo, RoundTripsEveryPaperWorkload)
{
    for (const graph::ModelConfig &config : graph::paperWorkloads()) {
        const graph::ModelConfig again =
            graph::modelConfigFromJson(graph::modelConfigToJson(config));
        EXPECT_EQ(again.name, config.name);
        EXPECT_EQ(again.numLayers, config.numLayers);
        EXPECT_EQ(again.hidden, config.hidden);
        EXPECT_EQ(again.heads, config.heads);
        EXPECT_EQ(again.seq, config.seq);
        EXPECT_EQ(again.vocab, config.vocab);
        EXPECT_EQ(again.numExperts, config.numExperts);
        EXPECT_EQ(again.encoderOnly, config.encoderOnly);
        EXPECT_DOUBLE_EQ(again.parameterCount(), config.parameterCount());
    }
}

TEST(ModelIo, RejectsInconsistentDimensions)
{
    Json bad = validModelJson();
    bad.set("heads", 30); // 4096 % 30 != 0.
    EXPECT_THROW(graph::modelConfigFromJson(bad), std::runtime_error);
    Json zero = validModelJson();
    zero.set("num_layers", 0);
    EXPECT_THROW(graph::modelConfigFromJson(zero), std::runtime_error);
}

TEST(ModelIo, LoadedConfigBuildsAGraph)
{
    const std::string path = "/tmp/neusight_model.json";
    {
        std::ofstream out(path);
        out << validModelJson().dump();
    }
    const graph::ModelConfig config = graph::resolveModel(path);
    const graph::KernelGraph g = graph::buildInferenceGraph(config, 2);
    EXPECT_GT(g.computeNodeCount(), 32u * 10);
    EXPECT_GT(g.totalFlops(), 1e12);
    // Table-5 names still resolve from the built-in set.
    EXPECT_EQ(graph::resolveModel("GPT2-Large").numLayers, 36u);
    std::remove(path.c_str());
}

/** Round-trip property over a sweep of generated JSON documents. */
class JsonRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(JsonRoundTrip, ParseDumpParseIsIdentity)
{
    const int seed = GetParam();
    // Deterministically build a nested document from the seed.
    Json doc;
    doc.set("seed", seed);
    doc.set("label", "case-" + std::to_string(seed));
    Json values;
    for (int i = 0; i < seed % 7 + 1; ++i)
        values.push(Json(seed * 0.125 + i));
    doc.set("values", std::move(values));
    Json nested;
    nested.set("flag", seed % 2 == 0);
    nested.set("none", nullptr);
    doc.set("nested", std::move(nested));

    const Json once = Json::parse(doc.dump(0));
    const Json twice = Json::parse(once.dump(4));
    EXPECT_TRUE(once == doc);
    EXPECT_TRUE(twice == doc);
}

INSTANTIATE_TEST_SUITE_P(Sweep, JsonRoundTrip,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 13, 21, 34));

} // namespace
} // namespace neusight
