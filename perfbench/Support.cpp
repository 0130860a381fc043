//===- Support.cpp --------------------------------------------------------===//

#include "Support.h"

#include "service/Json.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

using namespace matbench;

double matbench::nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Rng::next() {
  std::uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

double matbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(std::floor(Pos));
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double matbench::median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

double matbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(std::max(X, 1e-9));
  return std::exp(LogSum / static_cast<double>(V.size()));
}

ProcStatus matbench::readProcStatus(int Pid) {
  ProcStatus S;
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line)) {
    auto Field = [&](const char *Key, long &Out) {
      std::size_t N = std::char_traits<char>::length(Key);
      if (Line.compare(0, N, Key) == 0)
        Out = std::strtol(Line.c_str() + N, nullptr, 10);
    };
    Field("Threads:", S.Threads);
    Field("VmHWM:", S.VmHWMkB);
    Field("VmRSS:", S.VmRSSkB);
  }
  return S;
}

void matbench::resetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

long matbench::countMappedUnder(int Pid, const std::string &Dir) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/maps");
  std::set<std::string> Files;
  std::string Line;
  while (std::getline(In, Line)) {
    std::size_t P = Line.find(Dir);
    if (P != std::string::npos)
      Files.insert(Line.substr(P));
  }
  return static_cast<long>(Files.size());
}

std::int64_t matbench::dirBytes(const std::string &Dir) {
  std::int64_t Total = 0;
  std::error_code EC;
  for (auto It = std::filesystem::recursive_directory_iterator(Dir, EC);
       !EC && It != std::filesystem::recursive_directory_iterator();
       It.increment(EC))
    if (It->is_regular_file(EC))
      Total += static_cast<std::int64_t>(It->file_size(EC));
  return Total;
}

Tracer::Scope Tracer::span(const std::string &Name) {
  if (!On)
    return Scope(nullptr, -1);
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Op = CurOp;
  S.Start = nowSec();
  Spans.push_back(std::move(S));
  Open.push_back(static_cast<int>(Spans.size() - 1));
  return Scope(this, Open.back());
}

void Tracer::Scope::close() {
  if (!T)
    return;
  T->Spans[Idx].End = nowSec();
  // Scopes close innermost-first, so the open stack pops in order.
  T->Open.pop_back();
  T = nullptr;
}

void Tracer::add(const std::string &Name, double Start, double End) {
  if (!On)
    return;
  Span S;
  S.Name = Name;
  S.Start = Start;
  S.End = End;
  S.Op = ++CurOp;
  Spans.push_back(std::move(S));
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::map<std::string, double> Self;
  for (const Span &S : Spans) {
    Self[S.Name] += S.End - S.Start;
    if (S.Parent >= 0)
      Self[Spans[S.Parent].Name] -= S.End - S.Start;
  }
  return Self;
}

std::string Tracer::chromeJson() const {
  using matcoal::JsonValue;
  JsonValue Events = JsonValue::array();
  double T0 = Spans.empty() ? 0 : Spans.front().Start;
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    JsonValue Args = JsonValue::object();
    Args.set("op", JsonValue::number(static_cast<double>(S.Op)));
    Args.set("id", JsonValue::number(static_cast<double>(I)));
    Args.set("parent", JsonValue::number(S.Parent));
    JsonValue E = JsonValue::object();
    E.set("name", JsonValue::str(S.Name));
    E.set("ph", JsonValue::str("X"));
    E.set("pid", JsonValue::number(1));
    E.set("tid", JsonValue::number(1));
    E.set("ts", JsonValue::number((S.Start - T0) * 1e6));
    E.set("dur", JsonValue::number((S.End - S.Start) * 1e6));
    E.set("args", std::move(Args));
    Events.push(std::move(E));
  }
  JsonValue Out = JsonValue::object();
  Out.set("traceEvents", std::move(Events));
  return Out.dump() + "\n";
}
