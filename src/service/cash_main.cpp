/**
 * @file
 * `cash` — the thin client for `cashd` (docs/SERVICE.md).  Connects
 * to the service socket, speaks `cash-svc-v1`, and prints results
 * exactly as `cashc` does, so scripts can switch between the two.
 *
 * Usage:
 *   cash [--socket PATH] [--timeout MS] [--retries N]
 *        <command> [args]
 *
 * Connects with capped exponential backoff (--retries attempts, 50 ms
 * doubling to 1 s) so scripts can race the client against a cashd
 * that is still starting up; --timeout bounds every socket read and
 * write once connected.
 *
 * Commands:
 *   ping                       round-trip a ping frame
 *   version                    client + server version/protocol
 *   stats                      print the server's svc.* metrics JSON
 *   shutdown                   ask the server to stop gracefully
 *   compile FILE [options]     compile FILE (or `-` for stdin)
 *   analyze FILE [options]     compile + run the analysis lints
 *   simulate FILE --run SPEC [options]
 *
 * Compile-family options: `cashc`'s request flags (parseRequestFlag,
 * driver_lib.h), sent as svcRequestOptions(), plus the client-local
 *   --label NAME      request label (shows up in server traces)
 *   --json            print the raw response body JSON instead of
 *                     rendering; control commands always print JSON
 * The rendered result is `cashc`'s output for the same flags
 * (renderResultBody), with "cash: " as the stderr prefix.
 *
 * Exit code mirrors cashc: the remote compile's exit code (0 ok,
 * 1 compile/sim error, 2 usage or analysis-blocked), and 3 when the
 * service itself is unreachable or speaks the wrong protocol.
 */
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "driver/driver_lib.h"
#include "service/client.h"

using namespace cash;

namespace {

int
usage()
{
    std::cerr <<
        "usage: cash [--socket PATH] [--timeout MS] [--retries N]\n"
        "            <command> [args]\n"
        "commands:\n"
        "  ping | version | stats | shutdown\n"
        "  compile FILE [request flags] [--label NAME] [--json]\n"
        "  analyze FILE [...]     (compile + lints)\n"
        "  simulate FILE --run SPEC [...]\n"
        "request flags (as cashc):\n"
              << kRequestFlagUsage;
    return 2;
}

std::string
defaultSocketPath()
{
    const char* env = std::getenv("CASH_SOCKET");
    return env && *env ? env : "/tmp/cashd.sock";
}

bool
readSource(const std::string& file, std::string* out)
{
    if (file == "-") {
        std::ostringstream ss;
        ss << std::cin.rdbuf();
        *out = ss.str();
        return true;
    }
    std::ifstream is(file);
    if (!is)
        return false;
    std::ostringstream ss;
    ss << is.rdbuf();
    *out = ss.str();
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string socketPath = defaultSocketPath();
    int64_t timeoutMs = 0;
    int retries = 5;
    int i = 1;
    while (i < argc && argv[i][0] == '-') {
        std::string arg = argv[i];
        if (arg == "--socket" && i + 1 < argc) {
            socketPath = argv[i + 1];
            i += 2;
        } else if (arg == "--timeout" && i + 1 < argc) {
            timeoutMs = std::atoll(argv[i + 1]);
            i += 2;
        } else if (arg == "--retries" && i + 1 < argc) {
            retries = std::atoi(argv[i + 1]);
            i += 2;
        } else {
            return usage();
        }
    }
    if (i >= argc)
        return usage();
    std::string cmd = argv[i++];

    // Compile-family arguments are checked before connecting, so a
    // usage error never waits on the server.
    const bool compileFamily =
        cmd == "compile" || cmd == "analyze" || cmd == "simulate";
    DriverRequest req;
    std::string source;
    std::string label;
    bool rawJson = false;
    if (compileFamily) {
        if (i >= argc)
            return usage();
        std::string file = argv[i++];
        for (; i < argc; i++) {
            std::string error;
            RequestFlag r = parseRequestFlag(argc, argv, &i, &req, &error);
            if (r == RequestFlag::Bad) {
                std::cerr << "cash: " << error << "\n";
                return usage();
            }
            if (r == RequestFlag::Consumed)
                continue;
            std::string arg = argv[i];
            if (arg == "--label" && i + 1 < argc) {
                label = argv[++i];
            } else if (arg == "--json") {
                rawJson = true;
            } else {
                return usage();
            }
        }
        if (!readSource(file, &source)) {
            std::cerr << "cash: cannot read " << file << "\n";
            return 2;
        }
        if (label.empty() && file != "-")
            label = file;
    } else if (cmd != "ping" && cmd != "version" && cmd != "stats" &&
               cmd != "shutdown") {
        return usage();
    }

    if (cmd == "version" && i >= argc) {
        // Print the client version even when no server is running.
        std::cout << versionString("cash") << "\n";
    }

    // Transport failures (unreachable server, timeout setup, protocol
    // skew) exit 3.
    auto transportError = [](const Status& failure) {
        std::cerr << "cash: " << failure.message() << "\n";
        return 3;
    };
    ServiceClient client;
    Status st = Status::ok();
    if (timeoutMs > 0)
        st = client.setIoTimeoutMs(timeoutMs);
    if (st)
        st = client.connectWithRetry(socketPath, retries);
    if (!st)
        return transportError(st);

    if (cmd == "ping") {
        st = client.ping();
        if (!st)
            return transportError(st);
        std::cout << "ok\n";
        return 0;
    }
    if (cmd == "version") {
        std::cout << "server: " << client.hello().getString("server")
                  << " " << client.hello().getString("version")
                  << " (" << client.hello().getString("schema")
                  << ", protocol "
                  << client.hello().getInt("protocol") << ")\n";
        return 0;
    }
    if (cmd == "stats") {
        Json resp;
        st = client.metrics(&resp);
        if (!st)
            return transportError(st);
        const Json* body = resp.get("body");
        std::cout << (body ? body->dump() : resp.dump()) << "\n";
        return 0;
    }
    if (cmd == "shutdown") {
        st = client.shutdownServer();
        if (!st)
            return transportError(st);
        std::cout << "shutdown requested\n";
        return 0;
    }

    Json resp;
    st = client.call(
        makeCompileRequest(cmd, source, svcRequestOptions(req), label),
        &resp);
    if (!st)
        return transportError(st);
    if (!resp.getBool("ok")) {
        const Json* err = resp.get("error");
        std::cerr << "cash: request rejected ("
                  << (err ? err->getString("code") : "unknown")
                  << "): "
                  << (err ? err->getString("message") : "") << "\n";
        return 2;
    }
    const Json* body = resp.get("body");
    if (!body) {
        std::cerr << "cash: malformed response (no body)\n";
        return 3;
    }
    if (rawJson) {
        std::cout << body->dump() << "\n";
        return static_cast<int>(body->getInt("exit", 1));
    }
    return renderResultBody(*body, "cash", std::cout, std::cerr);
}
