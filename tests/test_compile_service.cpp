/**
 * @file
 * Tests for the compile service (docs/SERVICE.md): the JSON codec,
 * the `cash-svc-v1` frame/request/response layers, the
 * content-addressed result cache, and an in-process ServiceServer
 * driven through real Unix-domain sockets — cache hit determinism,
 * concurrent-vs-serial byte identity, malformed-input recovery and
 * graceful shutdown with in-flight requests.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "driver/driver_lib.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "support/json.h"
#include "support/strings.h"

using namespace cash;

namespace {

// ---------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------

TEST(Json, ParseRoundtrip)
{
    const std::string text =
        R"({"a":1,"b":[true,false,null],"c":{"x":-2,"y":"s"},"d":1.5})";
    Json j;
    ASSERT_TRUE(Json::parse(text, &j).isOk());
    EXPECT_EQ(j.dump(), text);
    EXPECT_EQ(j.getInt("a"), 1);
    ASSERT_NE(j.get("b"), nullptr);
    EXPECT_EQ(j.get("b")->items().size(), 3u);
    EXPECT_TRUE(j.get("b")->items()[0].asBool());
    EXPECT_EQ(j.get("c")->getInt("x"), -2);
    EXPECT_EQ(j.get("c")->getString("y"), "s");
    EXPECT_DOUBLE_EQ(j.get("d")->asDouble(), 1.5);
}

TEST(Json, StringEscapes)
{
    Json j;
    ASSERT_TRUE(
        Json::parse(R"(["\"\\\/\b\f\n\r\t","\u0041\u00e9\u20ac"])", &j)
            .isOk());
    EXPECT_EQ(j.items()[0].asString(), "\"\\/\b\f\n\r\t");
    EXPECT_EQ(j.items()[1].asString(), "A\xc3\xa9\xe2\x82\xac");

    // Surrogate pair → 4-byte UTF-8 (U+1F600).
    ASSERT_TRUE(Json::parse(R"("\ud83d\ude00")", &j).isOk());
    EXPECT_EQ(j.asString(), "\xf0\x9f\x98\x80");

    // Dump escapes what it must and survives a reparse.
    Json s = Json::string(std::string("a\"b\\c\nd\x01") + "e");
    Json back;
    ASSERT_TRUE(Json::parse(s.dump(), &back).isOk());
    EXPECT_EQ(back.asString(), s.asString());
}

TEST(Json, Numbers)
{
    Json j;
    ASSERT_TRUE(Json::parse("[0,-7,9007199254740993,2.5e3]", &j).isOk());
    EXPECT_EQ(j.items()[0].kind(), Json::Kind::Int);
    EXPECT_EQ(j.items()[1].asInt(), -7);
    // Integral literals stay exact int64 (doubles would round this).
    EXPECT_EQ(j.items()[2].asInt(), 9007199254740993LL);
    EXPECT_EQ(j.items()[3].kind(), Json::Kind::Double);
    EXPECT_DOUBLE_EQ(j.items()[3].asDouble(), 2500.0);
}

TEST(Json, ParseErrors)
{
    Json j;
    EXPECT_FALSE(Json::parse("", &j).isOk());
    EXPECT_FALSE(Json::parse("{", &j).isOk());
    EXPECT_FALSE(Json::parse("[1,]", &j).isOk());
    EXPECT_FALSE(Json::parse("{\"a\":1} trailing", &j).isOk());
    EXPECT_FALSE(Json::parse("\"\\q\"", &j).isOk());
    EXPECT_FALSE(Json::parse("\"\\ud83d\"", &j).isOk()); // lone surrogate
    EXPECT_FALSE(Json::parse("01", &j).isOk());
    EXPECT_FALSE(Json::parse("nul", &j).isOk());

    // Depth limit bounds recursion.
    std::string deep(100, '[');
    deep += std::string(100, ']');
    EXPECT_FALSE(Json::parse(deep, &j, 64).isOk());
    EXPECT_TRUE(Json::parse(deep, &j, 128).isOk());
}

// ---------------------------------------------------------------------
// Protocol: frames, cache keys, result cache
// ---------------------------------------------------------------------

TEST(SvcProtocol, FrameRoundtrip)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_TRUE(writeFrame(fds[0], "hello").isOk());
    ASSERT_TRUE(writeFrame(fds[0], "").isOk());
    std::string payload;
    bool eof = false;
    ASSERT_TRUE(readFrame(fds[1], &payload, &eof).isOk());
    EXPECT_FALSE(eof);
    EXPECT_EQ(payload, "hello");
    ASSERT_TRUE(readFrame(fds[1], &payload, &eof).isOk());
    EXPECT_EQ(payload, "");

    // Closing between frames is a *clean* EOF ...
    ::close(fds[0]);
    ASSERT_TRUE(readFrame(fds[1], &payload, &eof).isOk());
    EXPECT_TRUE(eof);
    ::close(fds[1]);

    // ... closing inside a frame is an error (truncation).
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    uint8_t hdr[4] = {0, 0, 0, 100}; // promises 100 payload bytes
    ASSERT_EQ(::send(fds[0], hdr, 4, 0), 4);
    ASSERT_EQ(::send(fds[0], "short", 5, 0), 5);
    ::close(fds[0]);
    EXPECT_FALSE(readFrame(fds[1], &payload, &eof).isOk());
    ::close(fds[1]);

    // Oversize frames are rejected without allocating the payload.
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    uint8_t big[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    ASSERT_EQ(::send(fds[0], big, 4, 0), 4);
    Status st = readFrame(fds[1], &payload, &eof, 1024);
    EXPECT_FALSE(st.isOk());
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(SvcProtocol, CacheKeyCoversResultsNotIdentity)
{
    Json j;
    ASSERT_TRUE(Json::parse(
        R"({"op":"compile","id":7,"label":"a.c",)"
        R"("source":"int f(){return 1;}",)"
        R"("options":{"opt":"full","jobs":4}})", &j).isOk());
    SvcRequest a;
    ASSERT_TRUE(parseSvcRequest(j, &a).isOk());

    // id / label / jobs cannot change the result → same key.
    SvcRequest b = a;
    b.id = 99;
    b.label = "other.c";
    b.driver.jobs = 1;
    EXPECT_EQ(svcCacheKey(a), svcCacheKey(b));

    // Anything result-affecting → different key.
    SvcRequest c = a;
    c.driver.source += " ";
    EXPECT_NE(svcCacheKey(a), svcCacheKey(c));
    SvcRequest d = a;
    d.driver.target.level = OptLevel::None;
    EXPECT_NE(svcCacheKey(a), svcCacheKey(d));
    SvcRequest e = a;
    e.driver.runSpec = "f()";
    EXPECT_NE(svcCacheKey(a), svcCacheKey(e));
    SvcRequest f = a;
    f.driver.wantDot = true;
    EXPECT_NE(svcCacheKey(a), svcCacheKey(f));
    SvcRequest g = a;
    g.driver.target.simEngine("event");
    EXPECT_NE(svcCacheKey(a), svcCacheKey(g));
}

TEST(SvcProtocol, RequestValidation)
{
    auto parse = [](const std::string& text, SvcRequest* out) {
        Json j;
        Status st = Json::parse(text, &j);
        if (!st.isOk())
            return st;
        return parseSvcRequest(j, out);
    };
    SvcRequest req;
    EXPECT_FALSE(parse(R"({"op":"conjure"})", &req).isOk());
    EXPECT_FALSE(parse(R"({"op":"compile"})", &req).isOk()); // no source
    EXPECT_FALSE(parse(
        R"({"op":"simulate","source":"int f(){return 1;}"})",
        &req).isOk()); // simulate requires options.run
    EXPECT_FALSE(parse(
        R"({"op":"compile","source":"int f(){return 1;}",)"
        R"("options":{"mem":"imaginary"}})", &req).isOk());
    EXPECT_FALSE(parse(
        R"({"op":"compile","source":"int f(){return 1;}",)"
        R"("options":{"opt":17}})", &req).isOk());

    ASSERT_TRUE(parse(
        R"({"op":"analyze","source":"int f(){return 1;}"})",
        &req).isOk());
    EXPECT_TRUE(req.driver.analyze); // op analyze forces the flag

    // Unknown extra fields are ignored (forward compatibility).
    ASSERT_TRUE(parse(
        R"({"op":"ping","future_field":{"x":1}})", &req).isOk());

    // The legacy per-field keys, the target object and the target
    // string all name the same target, hence the same cache key.
    std::string keys[3];
    const char* forms[3] = {
        R"("opt":"1","mem":"perfect","engine":"event")",
        R"("target":{"opt":"medium","mem":"perfect","engine":"event"})",
        R"("target":"opt=O1,mem=perfect,engine=event")"};
    for (int i = 0; i < 3; i++) {
        ASSERT_TRUE(parse(std::string(R"({"op":"compile","source":"x",)") +
                              R"("options":{)" + forms[i] + "}}",
                          &req)
                        .isOk())
            << forms[i];
        keys[i] = svcCacheKey(req);
    }
    EXPECT_EQ(keys[0], keys[1]);
    EXPECT_EQ(keys[0], keys[2]);
    Status typed = parse(R"({"op":"compile","source":"x",)"
                         R"("options":{"target":{"fabric":4}}})",
                         &req);
    EXPECT_EQ(typed.message(), "options.target.fabric must be a string");
}

TEST(SvcCache, LruAndByteCaps)
{
    ResultCache cache(/*maxEntries=*/2, /*maxBytes=*/1 << 20);
    std::string out;
    EXPECT_FALSE(cache.lookup("a", &out));
    cache.insert("a", "1");
    cache.insert("b", "2");
    EXPECT_TRUE(cache.lookup("a", &out)); // refresh a
    EXPECT_EQ(out, "1");
    cache.insert("c", "3");               // evicts b (LRU)
    EXPECT_FALSE(cache.lookup("b", &out));
    EXPECT_TRUE(cache.lookup("a", &out));
    EXPECT_TRUE(cache.lookup("c", &out));
    ResultCache::Stats s = cache.stats();
    EXPECT_EQ(s.entries, 2);
    EXPECT_EQ(s.evictions, 1);

    // Byte cap: inserting over budget keeps at least the newest entry.
    ResultCache tiny(/*maxEntries=*/16, /*maxBytes=*/8);
    tiny.insert("k1", "0123456789");
    EXPECT_TRUE(tiny.lookup("k1", &out));
    tiny.insert("k2", "xyz");
    EXPECT_FALSE(tiny.lookup("k1", &out));
    EXPECT_TRUE(tiny.lookup("k2", &out));
}

// ---------------------------------------------------------------------
// In-process server end-to-end
// ---------------------------------------------------------------------

const char* kProgA =
    "int suma(int n) {\n"
    "  int s = 0;\n"
    "  int i;\n"
    "  for (i = 0; i < n; i++) s = s + i;\n"
    "  return s;\n"
    "}\n";

const char* kProgB =
    "int scale(int n) {\n"
    "  int s = 1;\n"
    "  int i;\n"
    "  for (i = 0; i < n; i++) s = s * 2;\n"
    "  return s;\n"
    "}\n";

const char* kProgC =
    "int triangle(int n) {\n"
    "  int s = 0;\n"
    "  int i;\n"
    "  int j;\n"
    "  for (i = 0; i < n; i++)\n"
    "    for (j = 0; j < i; j++) s = s + 1;\n"
    "  return s;\n"
    "}\n";

/** Parse @p args with the shared request-flag grammar. */
RequestFlag
parseFlags(std::vector<std::string> args, DriverRequest* req,
           std::string* error)
{
    std::vector<char*> argv;
    for (std::string& a : args)
        argv.push_back(a.data());
    const int argc = static_cast<int>(argv.size());
    for (int i = 0; i < argc; i++) {
        RequestFlag r = parseRequestFlag(argc, argv.data(), &i, req, error);
        if (r != RequestFlag::Consumed)
            return r;
    }
    return RequestFlag::Consumed;
}

TEST(SvcProtocol, RequestOptionsRoundTripEveryFlag)
{
    const std::vector<std::vector<std::string>> matrix = {
        {},
        {"--target", "opt=none"},
        {"--target=opt=medium,mem=perfect,engine=event"},
        {"--target", "ipo=off"},
        {"--target", "fabric=4x4:hop2", "--target", "mem=real4"},
        {"--passes", "dead_code,scalar_opts"},
        {"--passes=transitive_reduction"},
        {"--run", "run(64)"},
        {"--run=f(1,-2)", "--max-events", "123456"},
        {"--max-events=7"},
        {"--strict"},
        {"--verify-each-pass"},
        {"--no-verify"},
        {"--verify-each-pass", "--no-verify"},
        {"--analyze"},
        {"--analyze=ordering_soundness,dead_token_sink"},
        {"--analyze-strict"},
        {"--dump-cfg", "--dump-graph", "--dot"},
        {"--target", "opt=full,ipo=off,fabric=2x2", "--passes=dead_code",
         "--run", "g()", "--max-events", "9", "--strict",
         "--verify-each-pass", "--analyze=unprovable_pragma",
         "--analyze-strict", "--dump-cfg", "--dot"},
    };
    for (const auto& args : matrix) {
        SCOPED_TRACE(join(args, " "));
        SvcRequest orig;
        orig.op = SvcOp::Compile;
        orig.driver.source = kProgA;
        std::string error;
        ASSERT_EQ(parseFlags(args, &orig.driver, &error),
                  RequestFlag::Consumed)
            << error;

        Json wire;
        ASSERT_TRUE(Json::parse(makeCompileRequest(
                                    "compile", kProgA,
                                    svcRequestOptions(orig.driver))
                                    .dump(),
                                &wire)
                        .isOk());
        SvcRequest back;
        ASSERT_TRUE(parseSvcRequest(wire, &back).isOk());
        EXPECT_EQ(svcCacheKey(back), svcCacheKey(orig));
    }

    // jobs travels too, although it is not part of the key.
    DriverRequest j;
    j.jobs = 3;
    SvcRequest back;
    ASSERT_TRUE(parseSvcRequest(
                    makeCompileRequest("compile", kProgA,
                                       svcRequestOptions(j)),
                    &back)
                    .isOk());
    EXPECT_EQ(back.driver.jobs, 3);
}

TEST(SvcProtocol, RequestFlagGrammarRejectsRetiredAndBadFlags)
{
    // The deprecated target aliases are gone: --target is the only
    // spelling, so they are left to the front end, which rejects them.
    for (std::vector<std::string> args :
         std::vector<std::vector<std::string>>{
             {"-O", "full"}, {"-O3"}, {"--mem", "perfect"},
             {"--engine", "event"}, {"--engine=event"},
             {"--fabric", "2x2"}, {"--fabric=2x2"},
             {"--ordering-checks"}}) {
        DriverRequest req;
        std::string error;
        EXPECT_EQ(parseFlags(args, &req, &error), RequestFlag::NotMine)
            << args[0];
    }
    for (std::vector<std::string> args :
         std::vector<std::vector<std::string>>{
             {"--target", "fabric=0x9"}, {"--target=ipo=maybe"},
             {"--run"}, {"--run", "f(1"}, {"--max-events", "-3"},
             {"--max-events=lots"}}) {
        DriverRequest req;
        std::string error;
        EXPECT_EQ(parseFlags(args, &req, &error), RequestFlag::Bad)
            << args[0];
        EXPECT_FALSE(error.empty());
    }
}

TEST(SvcProtocol, RenderResultBodyPrintsTheCashcLines)
{
    SvcRequest req;
    req.op = SvcOp::Compile;
    req.driver.source = kProgA;
    req.driver.runSpec = "suma(10)";
    req.driver.analyze = true;
    req.driver.target.memSystem("perfect");
    Json body;
    ASSERT_TRUE(Json::parse(svcResultBody(req, runDriverRequest(req.driver)),
                            &body)
                    .isOk());
    std::ostringstream out, err;
    EXPECT_EQ(renderResultBody(body, "tool", out, err), 0);
    EXPECT_EQ(out.str().rfind("suma returned 45 in ", 0), 0u) << out.str();
    EXPECT_NE(out.str().find(" cycles (perfect memory)\n"),
              std::string::npos);
    EXPECT_EQ(err.str(),
              "tool: analysis: 0 error(s), 0 warning(s), 0 info(s)\n");

    req.driver.runSpec = "nosuch(1)";
    ASSERT_TRUE(Json::parse(svcResultBody(req, runDriverRequest(req.driver)),
                            &body)
                    .isOk());
    std::ostringstream out2, err2;
    EXPECT_EQ(renderResultBody(body, "tool", out2, err2), 1);
    EXPECT_EQ(out2.str(), "");
    EXPECT_NE(err2.str().find("tool: simulation failed (missing_graph): "),
              std::string::npos)
        << err2.str();
}

std::string
testSocketPath(const std::string& tag)
{
    return "/tmp/cash_svc_test_" + std::to_string(::getpid()) + "_" +
           tag + ".sock";
}

class ServiceFixture : public ::testing::Test
{
  protected:
    void
    startServer(const std::string& tag, size_t maxQueue = 4096)
    {
        cfg_.socketPath = testSocketPath(tag);
        cfg_.jobs = 2;
        cfg_.maxQueueDepth = maxQueue;
        server_ = std::make_unique<ServiceServer>(cfg_);
        ASSERT_TRUE(server_->start().isOk());
    }

    void
    TearDown() override
    {
        if (server_)
            server_->stop();
    }

    ServiceConfig cfg_;
    std::unique_ptr<ServiceServer> server_;
};

TEST_F(ServiceFixture, HandshakeReportsVersion)
{
    startServer("hello");
    ServiceClient client;
    ASSERT_TRUE(client.connect(cfg_.socketPath).isOk());
    EXPECT_EQ(client.hello().getString("schema"), kSvcSchema);
    EXPECT_EQ(client.hello().getInt("protocol"), kSvcProtocolVersion);
    EXPECT_EQ(client.hello().getString("server"), "cashd");
    EXPECT_EQ(client.hello().getString("version"), kCashVersion);
    EXPECT_TRUE(client.ping().isOk());
}

TEST_F(ServiceFixture, CacheHitIsByteIdentical)
{
    startServer("cache");
    ServiceClient client;
    ASSERT_TRUE(client.connect(cfg_.socketPath).isOk());

    Json opts = Json::object();
    opts.set("run", Json::string("suma(10)"));
    opts.set("dot", Json::boolean(true));

    auto bodyOf = [](const Json& resp) {
        const Json* b = resp.get("body");
        return b ? b->dump() : std::string();
    };

    Json r1, r2, r3;
    Json q1 = makeCompileRequest("compile", kProgA, opts, "first");
    q1.set("id", Json::number(int64_t{1}));
    ASSERT_TRUE(client.call(std::move(q1), &r1).isOk());
    ASSERT_TRUE(r1.getBool("ok"));
    EXPECT_FALSE(r1.getBool("cached"));
    EXPECT_EQ(r1.get("body")->getInt("exit"), 0);
    EXPECT_EQ(r1.get("body")->get("sim")->getInt("return"), 45);
    EXPECT_FALSE(r1.get("body")->getString("dot").empty());

    // Identical request, different id + label → cache hit, and the
    // body (the cached unit) is byte-identical.
    Json q2 = makeCompileRequest("compile", kProgA, opts, "second");
    q2.set("id", Json::number(int64_t{2}));
    ASSERT_TRUE(client.call(std::move(q2), &r2).isOk());
    ASSERT_TRUE(r2.getBool("ok"));
    EXPECT_TRUE(r2.getBool("cached"));
    EXPECT_EQ(bodyOf(r1), bodyOf(r2));

    // A different request is a miss.
    Json q3 = makeCompileRequest("compile", kProgB, opts);
    ASSERT_TRUE(client.call(std::move(q3), &r3).isOk());
    EXPECT_FALSE(r3.getBool("cached"));
    EXPECT_NE(bodyOf(r1), bodyOf(r3));

    StatSet m = server_->metrics();
    EXPECT_EQ(m.get("svc.cache.hits"), 1);
    EXPECT_EQ(m.get("svc.cache.misses"), 2);
    EXPECT_EQ(m.get("svc.requests.compile"), 3);
    EXPECT_GE(m.get("svc.latency.count"), 3);
}

TEST_F(ServiceFixture, ConcurrentClientsMatchSerialByteForByte)
{
    const std::vector<std::string> sources = {kProgA, kProgB, kProgC,
                                              kProgA, kProgC, kProgB};

    // Serial reference pass on a dedicated server (cold cache).
    std::vector<std::string> serial(sources.size());
    {
        startServer("serial");
        ServiceClient client;
        ASSERT_TRUE(client.connect(cfg_.socketPath).isOk());
        for (size_t i = 0; i < sources.size(); i++) {
            Json resp;
            ASSERT_TRUE(client
                            .call(makeCompileRequest("compile",
                                                     sources[i]),
                                  &resp)
                            .isOk());
            ASSERT_TRUE(resp.getBool("ok"));
            serial[i] = resp.get("body")->dump();
        }
        server_->stop();
    }

    // Concurrent pass: one client thread per request, fresh server.
    startServer("conc");
    std::vector<std::string> conc(sources.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < sources.size(); i++) {
        threads.emplace_back([&, i] {
            ServiceClient client;
            if (!client.connect(cfg_.socketPath).isOk())
                return;
            Json resp;
            if (!client.call(makeCompileRequest("compile", sources[i]),
                             &resp)
                     .isOk())
                return;
            if (resp.getBool("ok"))
                conc[i] = resp.get("body")->dump();
        });
    }
    for (std::thread& t : threads)
        t.join();

    for (size_t i = 0; i < sources.size(); i++) {
        ASSERT_FALSE(conc[i].empty()) << "request " << i << " failed";
        EXPECT_EQ(conc[i], serial[i]) << "request " << i;
    }
}

TEST_F(ServiceFixture, MalformedJsonIsRecoverable)
{
    startServer("badjson");

    // Raw socket: hand-rolled frames below the client abstraction.
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, cfg_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    std::string payload;
    bool eof = false;
    ASSERT_TRUE(readFrame(fd, &payload, &eof).isOk()); // hello

    // A well-formed frame holding garbage JSON: structured error,
    // connection stays usable.
    ASSERT_TRUE(writeFrame(fd, "{this is not json").isOk());
    ASSERT_TRUE(readFrame(fd, &payload, &eof).isOk());
    ASSERT_FALSE(eof);
    Json resp;
    ASSERT_TRUE(Json::parse(payload, &resp).isOk());
    EXPECT_FALSE(resp.getBool("ok", true));
    EXPECT_EQ(resp.get("error")->getString("code"), kSvcErrBadRequest);

    // A valid request on the *same* connection still works.
    ASSERT_TRUE(writeFrame(fd, R"({"op":"ping","id":5})").isOk());
    ASSERT_TRUE(readFrame(fd, &payload, &eof).isOk());
    ASSERT_TRUE(Json::parse(payload, &resp).isOk());
    EXPECT_TRUE(resp.getBool("ok"));
    EXPECT_EQ(resp.getInt("id"), 5);

    // Bad request fields: structured error, connection stays usable.
    ASSERT_TRUE(writeFrame(fd, R"({"op":"compile","id":6})").isOk());
    ASSERT_TRUE(readFrame(fd, &payload, &eof).isOk());
    ASSERT_TRUE(Json::parse(payload, &resp).isOk());
    EXPECT_FALSE(resp.getBool("ok", true));
    EXPECT_EQ(resp.getInt("id"), 6);
    EXPECT_EQ(resp.get("error")->getString("code"), kSvcErrBadRequest);

    StatSet m = server_->metrics();
    EXPECT_EQ(m.get("svc.protocol.errors"), 2);
    ::close(fd);
}

TEST_F(ServiceFixture, TruncatedFrameGetsStructuredErrorAndHangup)
{
    startServer("badframe");
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, cfg_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    std::string payload;
    bool eof = false;
    ASSERT_TRUE(readFrame(fd, &payload, &eof).isOk()); // hello

    // Header promises 64 bytes; deliver 3 and half-close.  Frame-level
    // damage: the server answers bad_frame once, then hangs up.
    uint8_t hdr[4] = {0, 0, 0, 64};
    ASSERT_EQ(::send(fd, hdr, 4, 0), 4);
    ASSERT_EQ(::send(fd, "abc", 3, 0), 3);
    ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

    ASSERT_TRUE(readFrame(fd, &payload, &eof).isOk());
    ASSERT_FALSE(eof);
    Json resp;
    ASSERT_TRUE(Json::parse(payload, &resp).isOk());
    EXPECT_FALSE(resp.getBool("ok", true));
    EXPECT_EQ(resp.get("error")->getString("code"), kSvcErrBadFrame);

    ASSERT_TRUE(readFrame(fd, &payload, &eof).isOk());
    EXPECT_TRUE(eof); // server hung up
    ::close(fd);

    // An oversize length prefix is the same class of damage.
    ASSERT_EQ((fd = ::socket(AF_UNIX, SOCK_STREAM, 0)) >= 0, true);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_TRUE(readFrame(fd, &payload, &eof).isOk()); // hello
    uint8_t big[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    ASSERT_EQ(::send(fd, big, 4, 0), 4);
    ASSERT_TRUE(readFrame(fd, &payload, &eof).isOk());
    ASSERT_FALSE(eof);
    ASSERT_TRUE(Json::parse(payload, &resp).isOk());
    EXPECT_EQ(resp.get("error")->getString("code"), kSvcErrBadFrame);
    ASSERT_TRUE(readFrame(fd, &payload, &eof).isOk());
    EXPECT_TRUE(eof);
    ::close(fd);
}

TEST_F(ServiceFixture, GracefulStopDrainsInFlightRequests)
{
    startServer("drain");
    ServiceClient client;
    ASSERT_TRUE(client.connect(cfg_.socketPath).isOk());

    // Fire a compile from a helper thread, wait until the server has
    // accepted it into the queue, then stop() — the response must
    // still arrive (stop drains, it does not drop).
    Json resp;
    bool ok = false;
    std::thread t([&] {
        Json opts = Json::object();
        opts.set("run", Json::string("triangle(40)"));
        ok = client.call(makeCompileRequest("simulate", kProgC, opts),
                         &resp)
                 .isOk();
    });
    for (int spin = 0; spin < 2000; spin++) {
        if (server_->metrics().get("svc.requests.compile") >= 1)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(server_->metrics().get("svc.requests.compile"), 1);
    server_->stop();
    t.join();

    ASSERT_TRUE(ok);
    ASSERT_TRUE(resp.getBool("ok"));
    EXPECT_EQ(resp.get("body")->get("sim")->getInt("return"), 780);
    EXPECT_FALSE(server_->running());
}

TEST_F(ServiceFixture, ShutdownOpFlagsTheServer)
{
    startServer("shutdownop");
    ServiceClient client;
    ASSERT_TRUE(client.connect(cfg_.socketPath).isOk());
    EXPECT_FALSE(server_->waitForStopRequest(0));
    ASSERT_TRUE(client.shutdownServer().isOk());
    EXPECT_TRUE(server_->waitForStopRequest(5000));
    server_->stop();
    EXPECT_FALSE(server_->running());
}

TEST_F(ServiceFixture, EngineOptionSelectsValidatesAndCacheKeys)
{
    startServer("engine");
    ServiceClient client;
    ASSERT_TRUE(client.connect(cfg_.socketPath).isOk());

    // Perfect memory: the macro engine's exactness contract promises
    // byte-identical return *and* cycles vs the event engine
    // (docs/SIMULATOR.md), so the service results must agree exactly.
    auto simulate = [&](const char* engine, Json* resp) {
        Json opts = Json::object();
        opts.set("run", Json::string("suma(10)"));
        opts.set("mem", Json::string("perfect"));
        if (engine)
            opts.set("engine", Json::string(engine));
        return client.call(
            makeCompileRequest("simulate", kProgA, opts), resp);
    };

    Json macro1, event1;
    ASSERT_TRUE(simulate(nullptr, &macro1).isOk()); // default: macro
    ASSERT_TRUE(macro1.getBool("ok"));
    const Json* ms = macro1.get("body")->get("sim");
    EXPECT_EQ(ms->getInt("return"), 45);

    ASSERT_TRUE(simulate("event", &event1).isOk());
    ASSERT_TRUE(event1.getBool("ok"));
    const Json* es = event1.get("body")->get("sim");
    EXPECT_EQ(es->getInt("return"), 45);
    EXPECT_EQ(es->getInt("cycles"), ms->getInt("cycles"));
    // The engine is part of the cache key: an otherwise identical
    // request on the other engine must not reuse the macro entry.
    EXPECT_FALSE(event1.getBool("cached"));

    // An explicit macro request matches the default-engine entry and
    // replays byte-identically from the cache.
    Json macro2;
    ASSERT_TRUE(simulate("macro", &macro2).isOk());
    ASSERT_TRUE(macro2.getBool("ok"));
    EXPECT_TRUE(macro2.getBool("cached"));
    EXPECT_EQ(macro1.get("body")->dump(), macro2.get("body")->dump());

    // An unknown engine is rejected up front as a bad request —
    // nothing compiles, nothing is cached.
    Json bad;
    ASSERT_TRUE(simulate("warp", &bad).isOk());
    EXPECT_FALSE(bad.getBool("ok", true));
    EXPECT_EQ(bad.get("error")->getString("code"), kSvcErrBadRequest);

    StatSet m = server_->metrics();
    EXPECT_EQ(m.get("svc.cache.hits"), 1);
    EXPECT_EQ(m.get("svc.cache.misses"), 2);
}

TEST_F(ServiceFixture, AnalyzeAndArtifactsThroughTheService)
{
    startServer("analyze");
    ServiceClient client;
    ASSERT_TRUE(client.connect(cfg_.socketPath).isOk());

    Json opts = Json::object();
    opts.set("analyze", Json::boolean(true));
    opts.set("cfg", Json::boolean(true));
    opts.set("graph", Json::boolean(true));
    Json resp;
    ASSERT_TRUE(
        client.call(makeCompileRequest("analyze", kProgA, opts), &resp)
            .isOk());
    ASSERT_TRUE(resp.getBool("ok"));
    const Json* body = resp.get("body");
    ASSERT_NE(body->get("analysis"), nullptr);
    EXPECT_EQ(body->get("analysis")->getInt("errors"), 0);
    EXPECT_FALSE(body->getString("cfg").empty());
    EXPECT_FALSE(body->getString("graph").empty());
    // The embedded stats document is the deterministic variant.
    const Json* stats = body->get("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->getString("schema"), "cash-stats-v1");
}

// ---------------------------------------------------------------------
// Guardrails: event cap, wall-clock budget
// ---------------------------------------------------------------------

TEST(DriverGuardrail, WallBudgetDegradesToTimeoutOutcome)
{
    // The driver-level plumbing under the service guardrail: a 1 ms
    // wall budget on a multi-million-event simulation degrades to a
    // reported outcome, never a hang or an abort.
    DriverRequest req;
    req.source = kProgC;
    req.runSpec = "triangle(2000)";
    req.simWallMs = 1;
    DriverReply rep = runDriverRequest(req);
    ASSERT_TRUE(rep.ranSim);
    EXPECT_EQ(rep.simOutcome, SimOutcome::Timeout);
    EXPECT_EQ(rep.exitCode, 1);
    EXPECT_NE(rep.simError.find("wall-clock"), std::string::npos)
        << rep.simError;
}

TEST_F(ServiceFixture, EventCapClampsRunawayRequests)
{
    // A request asking for an unlimited event budget gets the
    // server's cap instead and degrades to an ordinary event_limit
    // outcome.
    cfg_.maxEventsCap = 1000;
    startServer("evcap");
    ServiceClient client;
    ASSERT_TRUE(client.connect(cfg_.socketPath).isOk());

    Json opts = Json::object();
    opts.set("run", Json::string("triangle(40)"));
    Json resp;
    ASSERT_TRUE(
        client.call(makeCompileRequest("simulate", kProgC, opts),
                    &resp)
            .isOk());
    ASSERT_TRUE(resp.getBool("ok"));
    const Json* sim = resp.get("body")->get("sim");
    ASSERT_NE(sim, nullptr);
    EXPECT_EQ(sim->getString("outcome"), "event_limit");
    EXPECT_EQ(resp.get("body")->getInt("exit"), 1);
}

TEST_F(ServiceFixture, WallGuardTimesOutAndNeverCaches)
{
    cfg_.simWallMs = 1;
    cfg_.maxEventsCap = 0; // isolate the wall guard
    startServer("wall");
    ServiceClient client;
    ASSERT_TRUE(client.connect(cfg_.socketPath).isOk());

    Json opts = Json::object();
    opts.set("run", Json::string("triangle(2000)"));
    auto timedOut = [&](Json* resp) {
        Status st = client.call(
            makeCompileRequest("simulate", kProgC, opts), resp);
        ASSERT_TRUE(st.isOk());
        ASSERT_TRUE(resp->getBool("ok"));
        const Json* sim = resp->get("body")->get("sim");
        ASSERT_NE(sim, nullptr);
        EXPECT_EQ(sim->getString("outcome"), "timeout");
    };

    Json r1, r2;
    timedOut(&r1);
    // A timeout depends on host load, so the result must not enter
    // the cache: the identical request recomputes (and times out
    // again under the same budget) instead of replaying a hit.
    timedOut(&r2);
    EXPECT_FALSE(r2.getBool("cached"));
    EXPECT_EQ(server_->metrics().get("svc.cache.hits"), 0);
}

// ---------------------------------------------------------------------
// Client: connect retry, I/O timeouts
// ---------------------------------------------------------------------

TEST(ClientRetry, BacksOffUntilTheServerAppears)
{
    std::string path = testSocketPath("retry");
    ::unlink(path.c_str());

    // Start the server ~150 ms from now; the client's capped backoff
    // (20, 40, 80, ... ms) must ride out the ECONNREFUSED window.
    ServiceConfig cfg;
    cfg.socketPath = path;
    cfg.jobs = 1;
    std::unique_ptr<ServiceServer> server;
    std::thread starter([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        server = std::make_unique<ServiceServer>(cfg);
        ASSERT_TRUE(server->start().isOk());
    });

    ServiceClient client;
    Status st = client.connectWithRetry(path, 10, 20);
    starter.join();
    EXPECT_TRUE(st.isOk()) << st.message();
    EXPECT_TRUE(client.ping().isOk());
    client.close();
    if (server)
        server->stop();
}

TEST(ClientRetry, ExhaustsAttemptsAgainstADeadSocket)
{
    std::string path = testSocketPath("noserver");
    ::unlink(path.c_str());
    ServiceClient client;
    auto t0 = std::chrono::steady_clock::now();
    Status st = client.connectWithRetry(path, 3, 30);
    auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0);
    EXPECT_FALSE(st.isOk());
    // Two backoff sleeps (30 + 60 ms) separate the three attempts.
    EXPECT_GE(elapsed.count(), 80);
    EXPECT_FALSE(client.connected());
}

TEST(ClientTimeout, BoundsAHungServer)
{
    // A listener that accepts into its backlog but never sends the
    // hello frame: without SO_RCVTIMEO the handshake blocks forever.
    std::string path = testSocketPath("hung");
    ::unlink(path.c_str());
    int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(lfd, 8), 0);

    ServiceClient client;
    ASSERT_TRUE(client.setIoTimeoutMs(200).isOk());
    auto t0 = std::chrono::steady_clock::now();
    Status st = client.connect(path);
    auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0);
    EXPECT_FALSE(st.isOk());
    EXPECT_LT(elapsed.count(), 5000);
    ::close(lfd);
    ::unlink(path.c_str());
}

} // namespace
