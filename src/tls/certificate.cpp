#include "tls/certificate.hpp"

#include "util/strings.hpp"

namespace h2r::tls {

namespace {

constexpr char ascii_lower(char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c + ('a' - 'A')) : c;
}

/// Case-insensitive ASCII equality without building lowered copies —
/// this predicate runs millions of times per crawl (browser pooling and
/// the classifier both funnel through it).
bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}

bool iends_with(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() &&
         iequals(s.substr(s.size() - suffix.size()), suffix);
}

}  // namespace

bool matches_dns_name(std::string_view pattern,
                      std::string_view host) noexcept {
  if (pattern.empty() || host.empty()) return false;
  if (!(pattern.size() >= 2 && pattern[0] == '*' && pattern[1] == '.')) {
    return iequals(pattern, host);
  }
  // Wildcard: "*.suffix" must match exactly one extra label, and the
  // suffix must contain at least one label itself ("*." matches nothing).
  const std::string_view suffix = pattern.substr(1);  // ".suffix"
  if (suffix.size() <= 1) return false;
  if (host.size() <= suffix.size()) return false;  // the label is non-empty
  if (!iends_with(host, suffix)) return false;
  const std::string_view label =
      host.substr(0, host.size() - suffix.size());
  return label.find('.') == std::string_view::npos;
}

CertificatePtr Certificate::make(Spec spec) {
  return CertificatePtr(new Certificate(std::move(spec)));
}

bool Certificate::covers(std::string_view host) const noexcept {
  if (spec_.san_dns_names.empty()) {
    return matches_dns_name(spec_.subject_common_name, host);
  }
  for (const std::string& san : spec_.san_dns_names) {
    if (matches_dns_name(san, host)) return true;
  }
  return false;
}

std::string Certificate::fingerprint() const {
  return spec_.issuer_organization + "/" + std::to_string(spec_.serial) + "/" +
         spec_.subject_common_name;
}

}  // namespace h2r::tls
