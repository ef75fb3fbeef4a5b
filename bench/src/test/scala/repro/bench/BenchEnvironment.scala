package repro.bench

import java.io.File

import scala.sys.process.Process
import scala.util.Try

import org.apache.spark.sql.SparkSession

/** What the table benches print above their tables, so runs on two commits
  * or two machines can be told apart.
  */
object BenchEnvironment {

  /** The checkout's root: the nearest directory up from the working
    * directory that holds `build.sbt`.
    */
  lazy val root: File =
    Iterator.iterate(new File(".").getCanonicalFile)(_.getParentFile)
      .takeWhile(_ != null).find(d => new File(d, "build.sbt").isFile)
      .getOrElse(new File(".").getCanonicalFile)

  /** One line: cores, max heap, JVM, git revision and, when a session is
    * given, its Spark master.
    */
  def banner(spark: Option[SparkSession]): String = {
    val rt = Runtime.getRuntime
    val rev = Try(Process(Seq("git", "describe", "--always", "--dirty"), root).!!.trim).getOrElse("unknown")
    s"cores ${rt.availableProcessors}, max heap ${rt.maxMemory >> 20} MB, " +
      s"JVM ${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}, git $rev" +
      spark.fold("")(s => s", Spark master ${s.sparkContext.master}")
  }
}
