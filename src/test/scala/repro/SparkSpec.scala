package repro

import org.apache.spark.SparkEnv
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** The result of `body` and the number of Spark jobs it started. */
  def jobsOf[T](body: => T): (T, Int) = { val (r, jobs, _) = org.apache.spark.JobCounter(spark.sparkContext)(body); (r, jobs) }

  /** The result of `body` and the number of Spark stages its jobs submitted. */
  def stagesOf[T](body: => T): (T, Int) = { val (r, _, stages) = org.apache.spark.JobCounter(spark.sparkContext)(body); (r, stages) }

  /** Closure-serialized size in bytes of every partition in the RDD lineage
    * of `df`: what each task computing it carries besides its stage's binary.
    */
  def partitionBytes(df: DataFrame): Seq[Int] = lineage(df).flatMap(_.partitions).map(serializedBytes)

  /** Closure-serialized size in bytes of every RDD in the lineage of `df`,
    * with its narrow ancestors: what the binary of a stage ending in it
    * carries, and what each of the stage's tasks deserializes.
    */
  def rddBytes(df: DataFrame): Seq[Int] = lineage(df).map(serializedBytes)

  /** The RDDs `df` is computed from, the map sides of its shuffles included. */
  private def lineage(df: DataFrame): Seq[RDD[_]] = {
    def walk(rdd: RDD[_]): Seq[RDD[_]] = rdd +: rdd.dependencies.flatMap(d => walk(d.rdd))
    walk(df.rdd).distinct
  }

  private def serializedBytes(o: AnyRef): Int = SparkEnv.get.closureSerializer.newInstance().serialize(o).limit()
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
