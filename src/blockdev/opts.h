// Shared mount-option tokenizer for the volume layers (striped, mirrored).
// One place owns the token syntax: ","/" "-separated tokens, numeric
// values parsed whole ("chunk=16k" is malformed, not 16).
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bsim::blk {

/// Invoke `fn(token)` for every non-empty token of a mount-option string.
template <class Fn>
void for_each_opt_token(std::string_view opts, Fn&& fn) {
  std::size_t i = 0;
  while (i < opts.size()) {
    while (i < opts.size() && (opts[i] == ',' || opts[i] == ' ')) ++i;
    std::size_t j = i;
    while (j < opts.size() && opts[j] != ',' && opts[j] != ' ') ++j;
    if (j > i) fn(opts.substr(i, j - i));
    i = j;
  }
}

/// If `tok` is "<prefix><digits>", parse the number into `out`. The whole
/// value must be digits; any trailing junk rejects the token.
inline bool opt_num_after(std::string_view tok, std::string_view prefix,
                          std::uint64_t& out) {
  if (!tok.starts_with(prefix)) return false;
  const std::string_view v = tok.substr(prefix.size());
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc{} && ptr == v.data() + v.size();
}

/// Whether `tok` is in the full vocabulary the volume layers and file
/// systems accept. Every consumer still parses only the tokens it cares
/// about; this is the union, maintained so strict mount validation can
/// reject typos ("mirrro=2", "chunk=16k") instead of silently mounting
/// with the option ignored.
inline bool known_opt_token(std::string_view tok) {
  static constexpr std::string_view kExact[] = {
      "rw",       "linear",  "nogroup", "nopipeline",
      "noflusher", "io_uring", "extfuse",
      "scrub",    "lax_opts", "policy=rr", "policy=sq",
      "errors=remount-ro", "errors=continue", "errors=panic"};
  static constexpr std::string_view kNumeric[] = {
      "stripe=", "chunk=", "mirror=", "parity=",
      "spare=",  "max_log_batch=", "log_blocks=", "trace=",
      "retries=", "retry_backoff_us=", "io_deadline_ms="};
  for (const std::string_view k : kExact) {
    if (tok == k) return true;
  }
  std::uint64_t n = 0;
  for (const std::string_view p : kNumeric) {
    if (opt_num_after(tok, p, n)) return true;
  }
  return false;
}

/// The unrecognized tokens of a mount-option string (empty: all known).
inline std::vector<std::string> unknown_opt_tokens(std::string_view opts) {
  std::vector<std::string> bad;
  for_each_opt_token(opts, [&](std::string_view tok) {
    if (!known_opt_token(tok)) bad.emplace_back(tok);
  });
  return bad;
}

/// Whether `want` appears as a whole token of a mount-option string
/// (never as a substring: "extfuse_off" does not set "extfuse").
inline bool has_opt(std::string_view opts, std::string_view want) {
  bool found = false;
  for_each_opt_token(opts,
                     [&](std::string_view tok) { found = found || tok == want; });
  return found;
}

/// The "lax_opts" escape hatch: this mount opts out of strict validation
/// (for experiments carrying options the vocabulary does not know yet).
inline bool opts_lax(std::string_view opts) {
  return has_opt(opts, "lax_opts");
}

}  // namespace bsim::blk
