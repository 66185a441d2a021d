/**
 * @file
 * Platform-as-data: JSON serialization of PlatformSpec.
 *
 * The paper characterizes two physical machines (Table I); the
 * simulator generalizes beyond them by loading platform descriptions
 * from JSON config files (the configs/platforms directory ships a
 * RISC-V vector server, a CXL-tiered host, and a small-VRAM GPU).
 * Parsing
 * is strict in both directions: every field of the spec has exactly
 * one key, missing keys fall back to the field's default, and any
 * unknown key is a hard error with file context — a typoed knob must
 * never silently revert to a default mid-study.
 */

#ifndef AFSB_SYS_PLATFORM_CONFIG_HH
#define AFSB_SYS_PLATFORM_CONFIG_HH

#include <string>
#include <vector>

#include "sys/platform.hh"
#include "util/json.hh"

namespace afsb::sys {

/** Serialize @p platform to the JSON config schema. */
JsonValue platformToJson(const PlatformSpec &platform);

/**
 * Parse a platform config document.
 * @param context Source label ("riscv-cpu.json") for error messages.
 * @throws FatalError on unknown keys, type mismatches, a bad
 *         format/version header, or cache/TLB geometry the cache
 *         simulator cannot model (zero sizes, associativities or
 *         dTLB entries; line and page sizes that are not powers of
 *         two, or pages over 2 GiB).
 */
PlatformSpec platformFromJson(const JsonValue &doc,
                              const std::string &context);

/** Load and parse a platform config file from the host filesystem. */
PlatformSpec loadPlatformFile(const std::string &path);

/** Builtin platform names accepted by resolvePlatform(). */
std::vector<std::string> builtinPlatformNames();

/**
 * Resolve @p nameOrPath to a platform: a builtin name ("server",
 * "server-cxl", "desktop", "desktop-128") or a path to a *.json
 * config file (anything containing '/' or ending in ".json").
 * @throws FatalError when the name is unknown or the file is bad.
 */
PlatformSpec resolvePlatform(const std::string &nameOrPath);

} // namespace afsb::sys

#endif // AFSB_SYS_PLATFORM_CONFIG_HH
