//===- Daemon.cpp ---------------------------------------------------------===//

#include "Daemon.h"

#include "Support.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace matbench;

Daemon::Daemon(const std::string &Binary,
               const std::vector<std::string> &Args,
               const std::vector<std::string> &Env) {
  int ToChild[2], FromChild[2];
  if (pipe2(ToChild, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe failed");
  if (pipe2(FromChild, O_CLOEXEC) != 0) {
    close(ToChild[0]);
    close(ToChild[1]);
    throw std::runtime_error("pipe failed");
  }
  std::vector<std::string> EnvStore;
  for (char **E = environ; *E; ++E)
    EnvStore.push_back(*E);
  EnvStore.insert(EnvStore.end(), Env.begin(), Env.end());
  std::vector<char *> Argv{const_cast<char *>(Binary.c_str())};
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  std::vector<char *> Envp;
  for (std::string &E : EnvStore)
    Envp.push_back(E.data());
  Envp.push_back(nullptr);

  Pid = fork();
  if (Pid == 0) {
    dup2(ToChild[0], 0);
    dup2(FromChild[1], 1);
    execve(Binary.c_str(), Argv.data(), Envp.data());
    _exit(127);
  }
  close(ToChild[0]);
  close(FromChild[1]);
  In = ToChild[1];
  Out = FromChild[0];
  if (Pid < 0) {
    close(In);
    close(Out);
    throw std::runtime_error("fork failed");
  }
  // A daemon that died must surface as a failed write, not a SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
}

Daemon::~Daemon() { stop(); }

void Daemon::send(const std::string &Line) {
  std::string Buf = Line + "\n";
  std::size_t Done = 0;
  while (Done < Buf.size()) {
    ssize_t N = write(In, Buf.data() + Done, Buf.size() - Done);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      throw std::runtime_error("matcoald stdin closed");
    Done += static_cast<std::size_t>(N);
  }
}

bool Daemon::poll(int TimeoutMs, std::vector<std::string> &Lines) {
  pollfd P{Out, POLLIN, 0};
  int R = ::poll(&P, 1, TimeoutMs);
  if (R <= 0)
    return true;
  char Buf[65536];
  ssize_t N = read(Out, Buf, sizeof Buf);
  if (N < 0)
    return errno == EINTR || errno == EAGAIN;
  if (N == 0)
    return false;
  Partial.append(Buf, static_cast<std::size_t>(N));
  std::size_t Pos;
  while ((Pos = Partial.find('\n')) != std::string::npos) {
    Lines.push_back(Partial.substr(0, Pos));
    Partial.erase(0, Pos + 1);
  }
  return true;
}

int Daemon::stop() {
  if (Pid <= 0)
    return Status;
  if (In >= 0) {
    close(In);
    In = -1;
  }
  // Drain stdout so a daemon blocked on a full pipe can finish.
  double Deadline = nowSec() + 30;
  int WS = 0;
  pid_t Done = 0;
  while ((Done = waitpid(Pid, &WS, WNOHANG)) == 0 && nowSec() < Deadline) {
    std::vector<std::string> Ignored;
    if (!poll(50, Ignored))
      usleep(10000);
  }
  if (Done == 0) {
    kill(Pid, SIGKILL);
    waitpid(Pid, &WS, 0);
    Status = -1;
  } else {
    Status = WIFEXITED(WS) ? WEXITSTATUS(WS) : -1;
  }
  close(Out);
  Out = -1;
  Pid = -1;
  return Status;
}
